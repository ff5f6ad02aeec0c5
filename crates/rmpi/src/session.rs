//! The ReMPI-equivalent session: per-**(rank × domain)** wildcard-receive
//! order recording.
//!
//! Classic ReMPI keeps one receive-order record file per rank; every
//! wildcard receive and `waitany` of a rank serializes through that single
//! stream. Mirroring the thread gate's *gate domains*
//! ([`reomp_core::SessionConfig::plan`]), the recorder here partitions
//! receive **sites** — the *requested* `(src, tag)` of a call, hashed to a
//! [`SiteId`] by [`recv_site`]/[`waitany_site`] — across `D` independent
//! order streams per rank through one resolved [`DomainPlan`], the same
//! site map the thread gate runs. A rank session records every wildcard
//! receive, so its plan is never closed, and it has no `raw % D` rule: a
//! recording stamps its plan only when the plan pins a site, and a
//! plan-less trace is routed by the hashed fallback. Each
//! `(rank, domain)` stream owns its own log in record mode and its own
//! cursor in replay mode, so receives routed to different domains (e.g.
//! different tags) record and replay concurrently inside one rank — the
//! hybrid `MPI_THREAD_MULTIPLE` scaling story of the paper's §VI-C.
//!
//! The partition is a pure function of the requested `(src, tag)`:
//! identical in record and replay, which is what makes per-domain streams
//! replayable at all. The site the *thread* gate wraps a hybrid receive in
//! is the same [`recv_site`] hash, so a thread session configured with a
//! matching plan ([`MpiSession::matching_thread_plan`]) co-locates every
//! receive of one MPI domain in one thread-gate domain — receives that
//! share a stream stay mutually ordered, the same soundness contract the
//! thread gate's domain plans enforce for aliased sites.
//!
//! With `D = 1` (the default) everything degenerates to the classic
//! per-rank single stream, and the on-disk layout is byte-identical to the
//! pre-domain format (pinned by golden tests).
//!
//! Traces persist through the blob backends and the commit protocol of
//! thread traces ([`reomp_core::store`], [`MpiTrace::save`]);
//! [`MpiTrace::save_dir`] and [`MpiTrace::load_dir`] run them over a
//! [`DirBlobs`] directory. Only names, manifest lines and the event codec
//! are rmpi's own.

use crate::compress::{decode_events, encode_events};
use crate::message::MpiError;
use bytes::{Buf, BytesMut};
use parking_lot::Mutex;
use reomp_core::codec::{decode_plan, encode_plan, get_uvarint, put_uvarint};
use reomp_core::store::{Blobs, DirBlobs};
use reomp_core::sync::CachePadded;
use reomp_core::{DomainPlan, DumpTrigger, SiteId, TraceError};
use std::collections::{HashSet, VecDeque};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// What a recorded wildcard receive matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvEvent {
    /// Matched source rank.
    pub src: u32,
    /// Matched tag.
    pub tag: u32,
}

/// Render a newest-first admitted-event history the same way in every
/// diagnostic ([`MpiDivergence`] and `MpiError::ReplayExhausted`).
pub(crate) fn fmt_history(
    f: &mut std::fmt::Formatter<'_>,
    history: &[RecvEvent],
) -> std::fmt::Result {
    if history.is_empty() {
        return Ok(());
    }
    write!(f, "; last admitted (newest first):")?;
    for e in history {
        write!(f, " (src {}, tag {})", e.src, e.tag)?;
    }
    Ok(())
}

fn mix_key(rank: u32, peer: u32, tag: u32) -> u64 {
    u64::from(rank)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((u64::from(peer) << 32) | u64::from(tag))
}

/// Site of a receive call: a stable hash of the **requested** `(src, tag)`
/// (wildcards included verbatim), not the matched one — record and replay
/// compute it before any message is chosen, so both route the call to the
/// same `(rank × domain)` stream. The same site is what hybrid gated
/// receives pass to the thread gate.
#[must_use]
pub fn recv_site(rank: u32, src: u32, tag: u32) -> SiteId {
    SiteId::from_label_indexed("rmpi:recv", mix_key(rank, src, tag))
}

/// Site of a `waitany` call: an order-sensitive fold over the
/// construction-time `(peer, tag)` keys of the request set. Requests are
/// created in program order, so the fold is identical in record and
/// replay even when completion states differ.
#[must_use]
pub fn waitany_site(rank: u32, keys: impl IntoIterator<Item = (u32, u32)>) -> SiteId {
    let mut h = 0xa076_1d64_78bd_642f_u64;
    for (peer, tag) in keys {
        h = h.rotate_left(5) ^ mix_key(rank, peer, tag);
        h = h.wrapping_mul(0x2545_f491_4f6c_dd1d);
    }
    SiteId::from_label_indexed("rmpi:waitany", h)
}

/// Checkpoint of a bounded (flight-recorder) rmpi recording — the rmpi
/// analogue of [`reomp_core::Checkpoint`]. Eviction in a bounded
/// `(rank × domain)` stream is prefix-shaped (the oldest events go
/// first), so one per-stream count captures the discarded history:
/// replay free-runs the first `recv_bases[s]` receives of stream `s`
/// and only then starts enforcing the retained tail.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MpiCheckpoint {
    /// Retained-window size the recorder ran with (events per stream).
    pub window: u32,
    /// What caused the window to be materialized.
    pub trigger: DumpTrigger,
    /// Per `(rank × domain)` stream (flat, rank-major): wildcard
    /// receives evicted before the retained tail.
    pub recv_bases: Vec<u64>,
    /// Per `(rank × domain)` stream: `waitany` completions evicted
    /// before the retained tail.
    pub waitany_bases: Vec<u64>,
}

impl MpiCheckpoint {
    /// Structural consistency against the owning trace's stream count.
    pub fn check(&self, streams: usize) -> Result<(), TraceError> {
        if self.window == 0 {
            return Err(TraceError::Corrupt("rmpi checkpoint window is 0".into()));
        }
        if self.recv_bases.len() != streams || self.waitany_bases.len() != streams {
            return Err(TraceError::Corrupt(format!(
                "rmpi checkpoint has {}/{} bases for {streams} streams",
                self.recv_bases.len(),
                self.waitany_bases.len()
            )));
        }
        Ok(())
    }

    /// Encode as the `checkpoint.rmpi` section (varint framed, mirroring
    /// the core codec's RTCP section).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.extend_from_slice(b"RMCP");
        buf.extend_from_slice(&[1u8, self.trigger.code()]);
        put_uvarint(&mut buf, u64::from(self.window));
        put_uvarint(&mut buf, self.recv_bases.len() as u64);
        for &b in self.recv_bases.iter().chain(&self.waitany_bases) {
            put_uvarint(&mut buf, b);
        }
        buf.to_vec()
    }

    /// Inverse of [`MpiCheckpoint::encode`].
    pub fn decode(bytes: &[u8]) -> Result<MpiCheckpoint, TraceError> {
        let mut buf = bytes;
        if buf.remaining() < 6 || &buf.chunk()[..4] != b"RMCP" {
            return Err(TraceError::Corrupt("bad rmpi checkpoint magic".into()));
        }
        buf.advance(4);
        let version = buf.get_u8();
        if version != 1 {
            return Err(TraceError::Corrupt(format!(
                "rmpi checkpoint version {version} unsupported"
            )));
        }
        let trigger = DumpTrigger::from_code(buf.get_u8())
            .ok_or_else(|| TraceError::Corrupt("bad rmpi checkpoint trigger".into()))?;
        let window = u32::try_from(get_uvarint(&mut buf)?)
            .map_err(|_| TraceError::Corrupt("rmpi checkpoint window overflow".into()))?;
        let streams = get_uvarint(&mut buf)? as usize;
        if streams > bytes.len() {
            return Err(TraceError::Corrupt("rmpi checkpoint stream count".into()));
        }
        let mut bases = Vec::with_capacity(streams * 2);
        for _ in 0..streams * 2 {
            bases.push(get_uvarint(&mut buf)?);
        }
        if buf.has_remaining() {
            return Err(TraceError::Corrupt(
                "trailing bytes after rmpi checkpoint".into(),
            ));
        }
        let waitany_bases = bases.split_off(streams);
        Ok(MpiCheckpoint {
            window,
            trigger,
            recv_bases: bases,
            waitany_bases,
        })
    }
}

/// The blob an rmpi trace is loadable by: removed first, committed last.
const MANIFEST: &str = "manifest.txt";

/// The receive and waitany blob names of stream `(rank, dom)`: per-rank
/// names when there is one domain (the pre-domain layout), domain-tagged
/// ones otherwise.
fn stream_names(rank: u32, dom: u32, domains: u32) -> (String, String) {
    let stem = match domains {
        1 => format!("rank_{rank}"),
        _ => format!("rank_{rank}.d{dom}"),
    };
    (format!("{stem}.rmpi"), format!("{stem}.waitany.rmpi"))
}

/// A complete receive-order trace: one stream per `(rank × domain)`
/// (ReMPI record files, sharded like the thread gate's domains).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MpiTrace {
    /// Number of receive-order domains per rank (`1` = the classic
    /// single-stream-per-rank recording).
    pub domains: u32,
    /// The site → domain plan the recording partitioned receive sites
    /// with, stamped when it pins a site; `None` means the hashed fallback
    /// partition ([`DomainPlan::hashed_fallback`]) over `domains`.
    pub plan: Option<DomainPlan>,
    /// Wildcard-receive streams, flat and rank-major: index
    /// `rank * domains + dom`, each in that stream's receive order.
    pub recv_streams: Vec<Vec<RecvEvent>>,
    /// Per `(rank × domain)`: the request indices chosen by successive
    /// `waitany` calls (the `MPI_Waitany` completion order the paper's
    /// §VI-C gates). Same flat layout as [`MpiTrace::recv_streams`].
    pub waitany_streams: Vec<Vec<u32>>,
    /// `Some` when the trace is a bounded flight-recorder window rather
    /// than a full recording: per-stream evicted-event counts replay
    /// free-runs past before enforcing the retained tail.
    pub checkpoint: Option<MpiCheckpoint>,
}

impl Default for MpiTrace {
    fn default() -> MpiTrace {
        MpiTrace {
            domains: 1,
            plan: None,
            recv_streams: Vec::new(),
            waitany_streams: Vec::new(),
            checkpoint: None,
        }
    }
}

impl MpiTrace {
    /// A classic single-domain trace from per-rank streams (the pre-domain
    /// layout; every rank holds exactly one stream).
    #[must_use]
    pub fn single(per_rank: Vec<Vec<RecvEvent>>, waitany_per_rank: Vec<Vec<u32>>) -> MpiTrace {
        let mut waitany = waitany_per_rank;
        waitany.resize(per_rank.len(), Vec::new());
        MpiTrace {
            domains: 1,
            plan: None,
            recv_streams: per_rank,
            waitany_streams: waitany,
            checkpoint: None,
        }
    }

    /// Number of ranks.
    #[must_use]
    pub fn nranks(&self) -> u32 {
        (self.recv_streams.len() / self.domains.max(1) as usize) as u32
    }

    /// Total wildcard receives recorded.
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.recv_streams.iter().map(|r| r.len() as u64).sum()
    }

    /// Total `waitany` completions recorded.
    #[must_use]
    pub fn total_waitany(&self) -> u64 {
        self.waitany_streams.iter().map(|r| r.len() as u64).sum()
    }

    fn stream_index(&self, rank: u32, dom: u32) -> usize {
        (rank * self.domains + dom) as usize
    }

    /// Rank `rank`'s receive stream in domain `dom`.
    ///
    /// # Panics
    /// Panics when `rank >= nranks` or `dom >= domains`.
    #[must_use]
    pub fn recv_stream(&self, rank: u32, dom: u32) -> &[RecvEvent] {
        assert!(rank < self.nranks() && dom < self.domains);
        &self.recv_streams[self.stream_index(rank, dom)]
    }

    /// Rank `rank`'s waitany stream in domain `dom`.
    ///
    /// # Panics
    /// Panics when `rank >= nranks` or `dom >= domains`.
    #[must_use]
    pub fn waitany_stream(&self, rank: u32, dom: u32) -> &[u32] {
        assert!(rank < self.nranks() && dom < self.domains);
        &self.waitany_streams[self.stream_index(rank, dom)]
    }

    /// Total receives recorded by one rank across its domains.
    #[must_use]
    pub fn rank_events(&self, rank: u32) -> u64 {
        (0..self.domains)
            .map(|d| self.recv_stream(rank, d).len() as u64)
            .sum()
    }

    /// The receive-order domain of `site` under this trace's partition.
    #[must_use]
    pub fn domain_of(&self, site: SiteId) -> u32 {
        self.matching_thread_plan().domain_of(site)
    }

    /// The site map this trace was recorded under, and so replays under —
    /// the stamped plan, else the hashed fallback over `domains` — and the
    /// thread-session plan a hybrid run needs (the trace-side counterpart
    /// of [`MpiSession::matching_thread_plan`]).
    #[must_use]
    pub fn matching_thread_plan(&self) -> DomainPlan {
        self.plan
            .clone()
            .unwrap_or_else(|| DomainPlan::new(self.domains))
    }

    /// Structural consistency check; run after decoding and before replay.
    pub fn validate(&self) -> Result<(), TraceError> {
        if self.domains == 0 {
            return Err(TraceError::Corrupt("rmpi trace with zero domains".into()));
        }
        if !self
            .recv_streams
            .len()
            .is_multiple_of(self.domains as usize)
        {
            return Err(TraceError::Corrupt(format!(
                "{} receive streams are not a multiple of {} domains",
                self.recv_streams.len(),
                self.domains
            )));
        }
        if self.waitany_streams.len() != self.recv_streams.len() {
            return Err(TraceError::Corrupt(format!(
                "{} waitany streams for {} receive streams",
                self.waitany_streams.len(),
                self.recv_streams.len()
            )));
        }
        if let Some(plan) = &self.plan {
            if plan.domains() != self.domains {
                return Err(TraceError::Corrupt(format!(
                    "plan partitions {} domains but the trace has {}",
                    plan.domains(),
                    self.domains
                )));
            }
            if plan.is_closed() {
                return Err(TraceError::Corrupt(
                    "rmpi plan leaves receive sites ungated".into(),
                ));
            }
        }
        if let Some(cp) = &self.checkpoint {
            cp.check(self.recv_streams.len())?;
        }
        Ok(())
    }

    /// Persist as one compressed blob per `(rank × domain)` stream plus a
    /// manifest, mirroring ReMPI's per-process record files, and return the
    /// bytes written, manifest included. `D = 1` writes the pre-domain `v1`
    /// layout **byte-identically**; `D > 1` writes `v2` (a `domains` line,
    /// domain-tagged names, a stamped plan in `plan.rmpi`); a flight window
    /// writes `v3` (its checkpoint in `checkpoint.rmpi`). The write runs
    /// core's commit protocol ([`reomp_core::store`]): remove the manifest,
    /// sweep stale `*.rmpi` and `*.tmp` blobs, `put` every stream and
    /// section, `commit` the manifest last — a killed save leaves the old
    /// trace, [`TraceError::Empty`] or the new trace, never a mix.
    pub fn save<B: Blobs>(&self, blobs: &B) -> Result<u64, TraceError> {
        self.validate()?;
        let nranks = self.nranks();
        let mut files = Vec::with_capacity(2 * self.recv_streams.len() + 2);
        for rank in 0..nranks {
            for dom in 0..self.domains {
                let (recv, waitany) = stream_names(rank, dom, self.domains);
                files.push((recv, encode_events(self.recv_stream(rank, dom))));
                // Waitany indices ride the same event codec as `(idx, 0)`
                // pairs (delta/RLE loves the small monotone-ish values).
                let wa: Vec<RecvEvent> = self
                    .waitany_stream(rank, dom)
                    .iter()
                    .map(|&i| RecvEvent { src: i, tag: 0 })
                    .collect();
                files.push((waitany, encode_events(&wa)));
            }
        }
        // Layout version: v1 is the pinned pre-domain single-stream
        // layout, v2 adds domain sharding, v3 adds the flight checkpoint.
        // A full (unbounded) D = 1 trace must stay byte-identical to v1.
        let mut manifest = match (&self.checkpoint, self.domains) {
            (None, 1) => format!("rmpi-trace v1\nranks {nranks}\n"),
            (None, d) => format!("rmpi-trace v2\nranks {nranks}\ndomains {d}\n"),
            (Some(_), d) => format!("rmpi-trace v3\nranks {nranks}\ndomains {d}\n"),
        };
        if let (true, Some(plan)) = (self.domains > 1, &self.plan) {
            files.push(("plan.rmpi".into(), encode_plan(plan).to_vec()));
            manifest.push_str("plan 1\n");
        }
        if let Some(cp) = &self.checkpoint {
            files.push(("checkpoint.rmpi".into(), cp.encode()));
            manifest.push_str("flight 1\n");
        }

        blobs.remove(MANIFEST)?;
        let fresh: HashSet<&str> = files.iter().map(|(name, _)| name.as_str()).collect();
        for name in blobs.list()? {
            if name.ends_with(".tmp") || (name.ends_with(".rmpi") && !fresh.contains(name.as_str()))
            {
                blobs.remove(&name)?;
            }
        }
        let mut bytes = manifest.len() as u64;
        for (name, encoded) in &files {
            blobs.put(name, encoded)?;
            bytes += encoded.len() as u64;
        }
        blobs.commit(MANIFEST, manifest.as_bytes())?;
        Ok(bytes)
    }

    /// Load a trace written by [`MpiTrace::save`] in any of the `v1`, `v2`
    /// and `v3` layouts. No manifest is [`TraceError::Empty`]; a missing
    /// waitany blob (directories from before waitany recording) is an
    /// empty stream.
    pub fn load<B: Blobs>(blobs: &B) -> Result<MpiTrace, TraceError> {
        let manifest = match blobs.get(MANIFEST) {
            Err(TraceError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {
                return Err(TraceError::Empty)
            }
            other => String::from_utf8(other?),
        }
        .map_err(|_| TraceError::Corrupt("rmpi manifest is not UTF-8".into()))?;
        let mut lines = manifest.lines();
        let version = match lines.next() {
            Some("rmpi-trace v1") => 1u32,
            Some("rmpi-trace v2") => 2,
            Some("rmpi-trace v3") => 3,
            _ => return Err(TraceError::Corrupt("bad rmpi manifest header".into())),
        };
        // A zero domain count parses here and fails validation below.
        let mut count = |key: &str| {
            let n = lines.next().and_then(|l| l.strip_prefix(key)?.parse().ok());
            n.ok_or_else(|| TraceError::Corrupt(format!("bad {key}count")))
        };
        let ranks = count("ranks ")?;
        let domains = if version == 1 { 1 } else { count("domains ")? };
        // Every line left names a section of a layout that has it; a line
        // the writer never produces is damage, not a feature to skip.
        let (mut plan, mut checkpoint) = (None, None);
        for line in lines {
            match line {
                "plan 1" if version >= 2 => plan = Some(decode_plan(&blobs.get("plan.rmpi")?)?),
                "flight 1" if version == 3 => {
                    checkpoint = Some(MpiCheckpoint::decode(&blobs.get("checkpoint.rmpi")?)?);
                }
                _ => {
                    return Err(TraceError::Corrupt(format!(
                        "unknown line {line:?} in an rmpi v{version} manifest"
                    )))
                }
            }
        }
        // The manifest is outside input: every (rank, domain) stream is a
        // blob, so bound the declared count by the blobs held before
        // allocating for it.
        let held = blobs.list()?.len();
        let streams = (ranks as usize)
            .checked_mul(domains as usize)
            .filter(|&n| n <= held)
            .ok_or_else(|| {
                TraceError::Corrupt(format!(
                    "manifest declares {ranks} ranks × {domains} domains, more streams than \
                     the store holds blobs"
                ))
            })?;
        let mut recv_streams = Vec::with_capacity(streams);
        let mut waitany_streams = Vec::with_capacity(streams);
        for rank in 0..ranks {
            for dom in 0..domains {
                let (recv, waitany) = stream_names(rank, dom, domains);
                recv_streams.push(decode_events(&blobs.get(&recv)?)?);
                waitany_streams.push(match blobs.get(&waitany) {
                    Err(TraceError::Io(e)) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
                    other => decode_events(&other?)?.into_iter().map(|e| e.src).collect(),
                });
            }
        }
        let trace = MpiTrace {
            domains,
            plan,
            recv_streams,
            waitany_streams,
            checkpoint,
        };
        trace.validate()?;
        Ok(trace)
    }

    /// [`MpiTrace::save`] into the directory `dir`, created on first write.
    pub fn save_dir(&self, dir: &Path) -> Result<u64, TraceError> {
        self.save(&DirBlobs::new(dir))
    }

    /// [`MpiTrace::load`] from the directory `dir`.
    pub fn load_dir(dir: &Path) -> Result<MpiTrace, TraceError> {
        MpiTrace::load(&DirBlobs::new(dir))
    }
}

/// Session mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpiMode {
    /// No recording; wildcard receives are free-running.
    Passthrough,
    /// Log every wildcard receive's matched `(src, tag)`.
    Record,
    /// Force every wildcard receive to match the recorded `(src, tag)`.
    Replay,
}

/// Tuning knobs for an [`MpiSession`].
#[derive(Debug, Clone, Default)]
pub struct MpiSessionConfig {
    /// The receive-site map (mirroring [`reomp_core::SessionConfig::plan`]):
    /// the number of receive-order domains per rank and the domain of
    /// every site. `None` — the default — is one domain, the classic
    /// single-stream recording and trace layout byte-for-byte. A plan that
    /// pins sites is stamped into the trace and reconstructed by replay.
    /// Never closed: every wildcard receive is recorded.
    pub plan: Option<DomainPlan>,
    /// Record: `Some(n)` bounds in-situ retention to the last `n` events
    /// per `(rank × domain)` stream (the rmpi leg of the flight
    /// recorder); [`MpiSession::finish`] then stamps an [`MpiCheckpoint`]
    /// with the per-stream evicted counts. `None` (the default) retains
    /// everything, as the classic recorder does.
    pub flight: Option<u32>,
}

impl MpiSessionConfig {
    /// A config over `domains` receive-order domains, routed by the
    /// hashed fallback.
    #[must_use]
    pub fn with_domains(domains: u32) -> MpiSessionConfig {
        MpiSessionConfig {
            plan: Some(DomainPlan::new(domains)),
            ..MpiSessionConfig::default()
        }
    }

    /// Read `REOMP_DOMAINS` and `REOMP_FLIGHT` exactly as a thread
    /// session does ([`reomp_core::env_plan_and_window`]).
    #[must_use]
    pub fn from_env() -> MpiSessionConfig {
        let (plan, flight) = reomp_core::env_plan_and_window();
        MpiSessionConfig { plan, flight }
    }
}

/// One under-consumed `(rank × domain)` replay stream — the rmpi analogue
/// of the thread gate's `Divergence` report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MpiDivergence {
    /// The rank whose stream diverged.
    pub rank: u32,
    /// The receive-order domain of the stream.
    pub domain: u32,
    /// Wildcard receives consumed out of [`MpiDivergence::recv_recorded`].
    pub recv_consumed: usize,
    /// Wildcard receives the stream recorded.
    pub recv_recorded: usize,
    /// Waitany completions consumed out of
    /// [`MpiDivergence::waitany_recorded`].
    pub waitany_consumed: usize,
    /// Waitany completions the stream recorded.
    pub waitany_recorded: usize,
    /// The last admitted receive events of the stream, newest first.
    pub history: Vec<RecvEvent>,
}

impl std::fmt::Display for MpiDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank {} domain {}: replay consumed {}/{} receives, {}/{} waitany",
            self.rank,
            self.domain,
            self.recv_consumed,
            self.recv_recorded,
            self.waitany_consumed,
            self.waitany_recorded
        )?;
        fmt_history(f, &self.history)
    }
}

/// One `(rank × domain)` stream's share of an [`OrderLog`].
#[derive(Debug)]
struct Lane<T> {
    /// Record: the retained choices, oldest first.
    log: Mutex<VecDeque<T>>,
    /// Choices evicted before the retained tail: counted by a flight
    /// recording, taken from the checkpoint by a windowed replay.
    base: AtomicU64,
    /// Replay: calls made so far.
    cursor: AtomicUsize,
}

/// One kind of recorded choice — the `(src, tag)` wildcard receives
/// matched, or the request index `waitany` calls completed — across every
/// `(rank × domain)` stream of a session. Each stream's lane is on cache
/// lines of its own, because different ranks (and the threads of one rank
/// in different domains) drive different streams concurrently.
#[derive(Debug)]
struct OrderLog<T>(Vec<CachePadded<Lane<T>>>);

impl<T: Copy> OrderLog<T> {
    fn new(streams: usize, bases: Option<&[u64]>) -> Self {
        let lane = |s| Lane {
            log: Mutex::new(VecDeque::new()),
            base: AtomicU64::new(bases.map_or(0, |b: &[u64]| b[s])),
            cursor: AtomicUsize::new(0),
        };
        OrderLog((0..streams).map(|s| CachePadded(lane(s))).collect())
    }

    /// Record `choice` into `stream`; a flight `window` retains only the
    /// newest choices and counts the evicted ones into the stream's base.
    /// Eviction pops the oldest choice off the ring: O(1) per call at any
    /// window.
    fn log(&self, stream: usize, choice: T, window: Option<u32>) {
        let lane = &self.0[stream];
        let mut log = lane.log.lock();
        log.push_back(choice);
        if window.is_some_and(|w| log.len() > w as usize) {
            log.pop_front();
            lane.base.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Replay: the choice the next call of `stream` must make out of its
    /// `recorded` tail — `Ok(None)` for the `base` calls evicted before a
    /// dump (they free-run), `Err(())` past the tail.
    fn next(&self, stream: usize, recorded: &[T]) -> Result<Option<T>, ()> {
        let lane = &self.0[stream];
        let pos = lane.cursor.fetch_add(1, Ordering::Relaxed);
        match pos.checked_sub(lane.base.load(Ordering::Relaxed) as usize) {
            None => Ok(None),
            Some(pos) => recorded.get(pos).map(|&c| Some(c)).ok_or(()),
        }
    }

    /// Replay: how many of the `recorded` choices of `stream` the calls so
    /// far consumed.
    fn consumed(&self, stream: usize, recorded: usize) -> usize {
        let lane = &self.0[stream];
        let calls = lane.cursor.load(Ordering::Relaxed);
        calls
            .saturating_sub(lane.base.load(Ordering::Relaxed) as usize)
            .min(recorded)
    }

    fn bases(&self) -> Vec<u64> {
        self.0
            .iter()
            .map(|l| l.base.load(Ordering::Relaxed))
            .collect()
    }

    fn take(&self) -> Vec<Vec<T>> {
        self.0
            .iter()
            .map(|l| Vec::from(std::mem::take(&mut *l.log.lock())))
            .collect()
    }
}

/// Shared record/replay state for one [`crate::World`] run.
#[derive(Debug)]
pub struct MpiSession {
    mode: MpiMode,
    nranks: u32,
    /// The receive-site map every receive consults.
    plan: DomainPlan,
    flight: Option<u32>,
    recvs: OrderLog<RecvEvent>,
    waitanys: OrderLog<u32>,
    trace: Option<MpiTrace>,
}

/// Consumed events a replay diagnostic reports per `(rank × domain)`
/// stream.
const HISTORY_CAPACITY: usize = 16;

impl MpiSession {
    /// Free-running session.
    #[must_use]
    pub fn passthrough(nranks: u32) -> Self {
        Self::build(
            MpiMode::Passthrough,
            nranks,
            MpiSessionConfig::default(),
            None,
        )
    }

    /// Recording session with the classic one-stream-per-rank layout.
    #[must_use]
    pub fn record(nranks: u32) -> Self {
        Self::record_with(nranks, MpiSessionConfig::default())
    }

    /// Recording session with explicit configuration (domain count or
    /// plan).
    #[must_use]
    pub fn record_with(nranks: u32, cfg: MpiSessionConfig) -> Self {
        Self::build(MpiMode::Record, nranks, cfg, None)
    }

    /// Replay session over a recorded trace. The domain count and plan
    /// always come from the trace (a trace can only replay against the
    /// partition it was recorded with).
    ///
    /// # Panics
    /// Panics when the trace is structurally inconsistent; use
    /// [`MpiSession::try_replay`] for the fallible form.
    #[must_use]
    pub fn replay(trace: MpiTrace) -> Self {
        Self::try_replay(trace).expect("structurally valid rmpi trace")
    }

    /// Fallible form of [`MpiSession::replay`].
    pub fn try_replay(trace: MpiTrace) -> Result<Self, TraceError> {
        trace.validate()?;
        let nranks = trace.nranks();
        let cfg = MpiSessionConfig {
            plan: Some(trace.matching_thread_plan()),
            ..MpiSessionConfig::default()
        };
        Ok(Self::build(MpiMode::Replay, nranks, cfg, Some(trace)))
    }

    fn build(mode: MpiMode, nranks: u32, cfg: MpiSessionConfig, trace: Option<MpiTrace>) -> Self {
        let plan = cfg.plan.unwrap_or_default();
        let streams = (nranks * plan.domains()) as usize;
        let checkpoint = trace.as_ref().and_then(|t| t.checkpoint.as_ref());
        MpiSession {
            mode,
            nranks,
            plan,
            flight: cfg.flight.map(|n| n.max(1)),
            recvs: OrderLog::new(streams, checkpoint.map(|cp| &cp.recv_bases[..])),
            waitanys: OrderLog::new(streams, checkpoint.map(|cp| &cp.waitany_bases[..])),
            trace,
        }
    }

    /// Session mode.
    #[must_use]
    pub fn mode(&self) -> MpiMode {
        self.mode
    }

    /// Number of ranks.
    #[must_use]
    pub fn nranks(&self) -> u32 {
        self.nranks
    }

    /// Number of receive-order domains per rank (≥ 1).
    #[must_use]
    pub fn domains(&self) -> u32 {
        self.plan.domains()
    }

    /// The receive-order domain `site` belongs to — a fixed partition
    /// record and replay compute identically.
    #[inline]
    #[must_use]
    pub fn domain_of(&self, site: SiteId) -> u32 {
        self.plan.domain_of(site)
    }

    /// A [`DomainPlan`] for the per-rank **thread** sessions of a hybrid
    /// run that makes the thread gate's partition agree with this
    /// session's: receives sharing one `(rank × domain)` receive stream
    /// then share one thread-gate domain, so their relative pop order is
    /// enforced by the thread gate (the hybrid soundness contract —
    /// without it, two thread-gate domains could consume one receive
    /// stream out of recorded order).
    #[must_use]
    pub fn matching_thread_plan(&self) -> DomainPlan {
        self.plan.clone()
    }

    fn stream_index(&self, rank: u32, dom: u32) -> usize {
        debug_assert!(rank < self.nranks && dom < self.domains());
        (rank * self.domains() + dom) as usize
    }

    /// The last [`HISTORY_CAPACITY`] receive events `(rank, dom)`'s replay
    /// consumed, newest first like the thread gate's divergence history:
    /// read back from the recorded stream below its cursor, so a receive
    /// keeps no history of its own.
    fn history_snapshot(&self, rank: u32, dom: u32) -> Vec<RecvEvent> {
        let Some(trace) = self.trace.as_ref() else {
            return Vec::new();
        };
        let recorded = trace.recv_stream(rank, dom);
        let consumed = self
            .recvs
            .consumed(self.stream_index(rank, dom), recorded.len());
        recorded[consumed.saturating_sub(HISTORY_CAPACITY)..consumed]
            .iter()
            .rev()
            .copied()
            .collect()
    }

    /// Record one matched wildcard receive into `(rank, dom)` (record mode
    /// only). With a flight window the stream retains only the last
    /// `window` events; the evicted count accumulates into the
    /// checkpoint base for this stream.
    pub fn log_recv(&self, rank: u32, dom: u32, src: u32, tag: u32) {
        if self.mode == MpiMode::Record {
            let stream = self.stream_index(rank, dom);
            self.recvs.log(stream, RecvEvent { src, tag }, self.flight);
        }
    }

    /// Replay mode: the `(src, tag)` the next wildcard receive of
    /// `(rank, dom)` must match.
    pub fn next_recv(&self, rank: u32, dom: u32) -> Result<Option<RecvEvent>, MpiError> {
        if self.mode != MpiMode::Replay {
            return Ok(None);
        }
        let trace = self.trace.as_ref().expect("replay has trace");
        let recorded = trace.recv_stream(rank, dom);
        self.recvs
            .next(self.stream_index(rank, dom), recorded)
            .map_err(|()| MpiError::ReplayExhausted {
                rank,
                domain: dom,
                consumed: recorded.len(),
                history: self.history_snapshot(rank, dom),
            })
    }

    /// Record one `waitany` completion choice into `(rank, dom)` (record
    /// mode only). Flight windows bound this stream exactly like
    /// [`MpiSession::log_recv`].
    pub fn log_waitany(&self, rank: u32, dom: u32, index: u32) {
        if self.mode == MpiMode::Record {
            let stream = self.stream_index(rank, dom);
            self.waitanys.log(stream, index, self.flight);
        }
    }

    /// Replay mode: the request index the next `waitany` of `(rank, dom)`
    /// must complete.
    pub fn next_waitany(&self, rank: u32, dom: u32) -> Result<Option<u32>, MpiError> {
        if self.mode != MpiMode::Replay {
            return Ok(None);
        }
        let trace = self.trace.as_ref().expect("replay has trace");
        let recorded = trace.waitany_stream(rank, dom);
        self.waitanys
            .next(self.stream_index(rank, dom), recorded)
            .map_err(|()| MpiError::WaitanyExhausted {
                rank,
                domain: dom,
                consumed: recorded.len(),
            })
    }

    /// Extract the recorded trace (record mode). Flight sessions stamp a
    /// [`DumpTrigger::Manual`] checkpoint; use
    /// [`MpiSession::finish_with_trigger`] to record why the window was
    /// materialized.
    #[must_use]
    pub fn finish(&self) -> MpiTrace {
        self.finish_with_trigger(DumpTrigger::Manual)
    }

    /// [`MpiSession::finish`], naming the dump trigger stamped into the
    /// checkpoint of a flight (bounded-retention) recording. The trigger
    /// is ignored for unbounded sessions, which carry no checkpoint.
    #[must_use]
    pub fn finish_with_trigger(&self, trigger: DumpTrigger) -> MpiTrace {
        let checkpoint = self.flight.map(|window| MpiCheckpoint {
            window,
            trigger,
            recv_bases: self.recvs.bases(),
            waitany_bases: self.waitanys.bases(),
        });
        MpiTrace {
            domains: self.domains(),
            plan: (!self.plan.is_empty()).then(|| self.plan.clone()),
            recv_streams: self.recvs.take(),
            waitany_streams: self.waitanys.take(),
            checkpoint,
        }
    }

    /// Replay mode: whether every `(rank × domain)` stream consumed its
    /// full recording. See [`MpiSession::divergences`] for which streams
    /// did not, with history.
    #[must_use]
    pub fn fully_consumed(&self) -> Option<bool> {
        self.trace.as_ref()?;
        Some(self.divergences().is_empty())
    }

    /// Replay mode: every under-consumed stream, named by rank **and**
    /// domain with its last-N admitted-event history (empty in other
    /// modes and when replay consumed everything). Over-consumption
    /// surfaces as [`MpiError::ReplayExhausted`] at the offending call
    /// instead.
    #[must_use]
    pub fn divergences(&self) -> Vec<MpiDivergence> {
        let Some(trace) = self.trace.as_ref() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for rank in 0..self.nranks {
            for dom in 0..self.domains() {
                let stream = self.stream_index(rank, dom);
                let recv_recorded = trace.recv_stream(rank, dom).len();
                let recv_consumed = self.recvs.consumed(stream, recv_recorded);
                let waitany_recorded = trace.waitany_stream(rank, dom).len();
                let waitany_consumed = self.waitanys.consumed(stream, waitany_recorded);
                if recv_consumed < recv_recorded || waitany_consumed < waitany_recorded {
                    out.push(MpiDivergence {
                        rank,
                        domain: dom,
                        recv_consumed,
                        recv_recorded,
                        waitany_consumed,
                        waitany_recorded,
                        history: self.history_snapshot(rank, dom),
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reomp_core::store::MemBlobs;

    #[test]
    fn record_log_and_finish() {
        let s = MpiSession::record(2);
        s.log_recv(0, 0, 1, 7);
        s.log_recv(0, 0, 1, 8);
        s.log_recv(1, 0, 0, 7);
        let trace = s.finish();
        assert_eq!(trace.nranks(), 2);
        assert_eq!(trace.domains, 1);
        assert_eq!(trace.total_events(), 3);
        assert_eq!(trace.recv_stream(0, 0)[1], RecvEvent { src: 1, tag: 8 });
    }

    #[test]
    fn passthrough_logs_nothing() {
        let s = MpiSession::passthrough(1);
        s.log_recv(0, 0, 0, 0);
        assert_eq!(s.finish().total_events(), 0);
        assert_eq!(s.next_recv(0, 0).unwrap(), None);
    }

    #[test]
    fn replay_serves_events_in_order_then_exhausts_with_diagnostics() {
        let trace = MpiTrace::single(
            vec![vec![
                RecvEvent { src: 2, tag: 5 },
                RecvEvent { src: 1, tag: 5 },
            ]],
            vec![vec![]],
        );
        let s = MpiSession::replay(trace);
        assert_eq!(s.fully_consumed(), Some(false));
        assert_eq!(
            s.next_recv(0, 0).unwrap(),
            Some(RecvEvent { src: 2, tag: 5 })
        );
        assert_eq!(
            s.next_recv(0, 0).unwrap(),
            Some(RecvEvent { src: 1, tag: 5 })
        );
        assert_eq!(s.fully_consumed(), Some(true));
        assert!(s.divergences().is_empty());
        // The exhaustion error names the rank AND domain and carries the
        // admitted history, newest first.
        match s.next_recv(0, 0) {
            Err(MpiError::ReplayExhausted {
                rank: 0,
                domain: 0,
                consumed: 2,
                history,
            }) => {
                assert_eq!(
                    history,
                    vec![RecvEvent { src: 1, tag: 5 }, RecvEvent { src: 2, tag: 5 }]
                );
            }
            other => panic!("expected exhaustion with history, got {other:?}"),
        }
        let err = s.next_recv(0, 0).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("rank 0 domain 0"), "{text}");
        assert!(text.contains("(src 1, tag 5)"), "{text}");
    }

    #[test]
    fn divergences_name_under_consumed_streams() {
        let mut trace = MpiTrace::single(vec![vec![RecvEvent { src: 1, tag: 0 }]], vec![vec![0]]);
        trace.recv_streams.push(vec![RecvEvent { src: 0, tag: 3 }]);
        trace.waitany_streams.push(vec![]);
        trace.domains = 2;
        trace.validate().unwrap();
        let s = MpiSession::replay(trace);
        assert_eq!(s.nranks(), 1);
        // Consume only domain 0's receive; its waitany and all of domain 1
        // stay untouched.
        let _ = s.next_recv(0, 0).unwrap();
        let divs = s.divergences();
        assert_eq!(divs.len(), 2);
        assert_eq!((divs[0].rank, divs[0].domain), (0, 0));
        assert_eq!(divs[0].recv_consumed, 1);
        assert_eq!(divs[0].waitany_consumed, 0);
        assert_eq!(divs[0].waitany_recorded, 1);
        assert_eq!((divs[1].rank, divs[1].domain), (0, 1));
        assert_eq!(divs[1].recv_consumed, 0);
        assert_eq!(divs[1].recv_recorded, 1);
        let text = divs[1].to_string();
        assert!(text.contains("rank 0 domain 1"), "{text}");
        assert_eq!(s.fully_consumed(), Some(false));
    }

    #[test]
    fn waitany_exhaustion_names_rank_and_domain() {
        let s = MpiSession::replay(MpiTrace::single(vec![vec![]], vec![vec![]]));
        match s.next_waitany(0, 0) {
            Err(MpiError::WaitanyExhausted {
                rank: 0,
                domain: 0,
                consumed: 0,
            }) => {}
            other => panic!("expected waitany exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn multi_domain_session_routes_by_site() {
        let cfg = MpiSessionConfig::with_domains(4);
        let s = MpiSession::record_with(2, cfg);
        assert_eq!(s.domains(), 4);
        // The partition is total, stable, and matches the hashed fallback.
        for tag in 0..64u32 {
            let site = recv_site(0, crate::ANY_SOURCE, tag);
            let dom = s.domain_of(site);
            assert!(dom < 4);
            assert_eq!(dom, DomainPlan::hashed_fallback(4, site));
            assert_eq!(dom, s.domain_of(site));
        }
        // Record into two different domains; the trace keeps them apart.
        s.log_recv(0, 1, 3, 9);
        s.log_recv(0, 2, 4, 9);
        s.log_recv(1, 1, 0, 9);
        let trace = s.finish();
        assert_eq!(trace.domains, 4);
        assert_eq!(trace.nranks(), 2);
        assert_eq!(trace.recv_stream(0, 1).len(), 1);
        assert_eq!(trace.recv_stream(0, 2).len(), 1);
        assert_eq!(trace.recv_stream(0, 0).len(), 0);
        assert_eq!(trace.rank_events(0), 2);
        assert_eq!(trace.rank_events(1), 1);
    }

    #[test]
    fn planned_session_routes_by_plan_and_replay_reconstructs_it() {
        let a = recv_site(0, crate::ANY_SOURCE, 1);
        let b = recv_site(0, crate::ANY_SOURCE, 2);
        let plan = DomainPlan::with_assignments(2, [(a, 1), (b, 0)]);
        let cfg = MpiSessionConfig {
            plan: Some(plan.clone()),
            ..MpiSessionConfig::default()
        };
        let s = MpiSession::record_with(1, cfg);
        assert_eq!(s.domains(), 2);
        assert_eq!(s.domain_of(a), 1);
        assert_eq!(s.domain_of(b), 0);
        s.log_recv(0, 1, 5, 1);
        let trace = s.finish();
        assert_eq!(trace.plan.as_ref(), Some(&plan));
        assert_eq!(trace.domain_of(a), 1);

        let replay = MpiSession::replay(trace);
        assert_eq!(replay.domain_of(a), 1);
        assert_eq!(replay.domain_of(b), 0);
        assert_eq!(replay.matching_thread_plan(), plan);
    }

    #[test]
    fn matching_thread_plan_mirrors_hashed_partition() {
        let s = MpiSession::record_with(1, MpiSessionConfig::with_domains(3));
        let plan = s.matching_thread_plan();
        assert_eq!(plan.domains(), 3);
        assert!(plan.is_empty(), "plan-less sessions mirror via empty plan");
        for tag in 0..32 {
            let site = recv_site(0, crate::ANY_SOURCE, tag);
            assert_eq!(plan.domain_of(site), s.domain_of(site));
        }
    }

    #[test]
    fn sites_are_stable_and_spread() {
        assert_eq!(recv_site(0, 1, 2), recv_site(0, 1, 2));
        assert_ne!(recv_site(0, 1, 2), recv_site(0, 1, 3));
        assert_ne!(recv_site(0, 1, 2), recv_site(1, 1, 2));
        let keys = [(1u32, 2u32), (3, 4)];
        assert_eq!(waitany_site(0, keys), waitany_site(0, keys));
        assert_ne!(
            waitany_site(0, [(1u32, 2u32), (3, 4)]),
            waitany_site(0, [(3u32, 4u32), (1, 2)]),
            "fold is order-sensitive"
        );
    }

    #[test]
    fn trace_validate_rejects_inconsistency() {
        let mut t = MpiTrace::single(vec![vec![]], vec![vec![]]);
        t.domains = 0;
        assert!(t.validate().is_err());
        let mut t = MpiTrace::single(vec![vec![], vec![]], vec![vec![], vec![]]);
        t.domains = 2;
        t.waitany_streams.pop();
        assert!(t.validate().is_err());
        let mut t = MpiTrace::single(vec![vec![], vec![]], vec![vec![], vec![]]);
        t.domains = 2;
        t.plan = Some(DomainPlan::new(3));
        assert!(t.validate().is_err(), "plan domain count must match");
        t.plan = Some(DomainPlan::new(2));
        t.validate().unwrap();
    }

    #[test]
    fn trace_dir_roundtrip_single_domain() {
        let trace = MpiTrace::single(
            vec![
                (0..100).map(|i| RecvEvent { src: i % 3, tag: 1 }).collect(),
                vec![],
                vec![RecvEvent { src: 0, tag: 9 }],
            ],
            vec![vec![0, 1, 0], vec![], vec![2]],
        );
        let dir = std::env::temp_dir().join(format!("rmpi-trace-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        trace.save_dir(&dir).unwrap();
        let back = MpiTrace::load_dir(&dir).unwrap();
        assert_eq!(back, trace);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn forged_rank_count_is_corrupt_and_a_missing_manifest_is_empty() {
        // The manifest is outside input. This one used to overflow
        // `ranks * domains` (a panic in debug builds; in release the
        // wrapped product sized an allocation).
        let dir = std::env::temp_dir().join(format!("rmpi-trace-forged-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(matches!(MpiTrace::load_dir(&dir), Err(TraceError::Empty)));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(MpiTrace::load_dir(&dir), Err(TraceError::Empty)));
        std::fs::write(
            dir.join("manifest.txt"),
            "rmpi-trace v2\nranks 4000000000\ndomains 2\n",
        )
        .unwrap();
        let err = MpiTrace::load_dir(&dir).unwrap_err();
        assert!(
            matches!(&err, TraceError::Corrupt(msg) if msg.contains("4000000000")),
            "expected a stream-count error, got {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_dir_roundtrip_multi_domain_with_plan() {
        let site = recv_site(0, crate::ANY_SOURCE, 7);
        let plan = DomainPlan::with_assignments(2, [(site, 1)]);
        let trace = MpiTrace {
            domains: 2,
            plan: Some(plan),
            recv_streams: vec![
                vec![RecvEvent { src: 1, tag: 0 }],
                vec![RecvEvent { src: 2, tag: 7 }, RecvEvent { src: 1, tag: 7 }],
                vec![],
                vec![RecvEvent { src: 0, tag: 9 }],
            ],
            waitany_streams: vec![vec![1, 0], vec![], vec![], vec![2]],
            checkpoint: None,
        };
        let dir = std::env::temp_dir().join(format!("rmpi-trace-md-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        trace.save_dir(&dir).unwrap();
        let back = MpiTrace::load_dir(&dir).unwrap();
        assert_eq!(back, trace);

        // Re-saving a single-domain trace over the same directory scrubs
        // the stale multi-domain files and drops back to the v1 layout.
        let single = MpiTrace::single(vec![vec![RecvEvent { src: 3, tag: 3 }]], vec![vec![]]);
        single.save_dir(&dir).unwrap();
        assert!(!dir.join("rank_0.d0.rmpi").exists(), "stale file scrubbed");
        assert!(!dir.join("plan.rmpi").exists(), "stale plan scrubbed");
        assert_eq!(MpiTrace::load_dir(&dir).unwrap(), single);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A two-rank, two-domain trace that stamps its plan.
    fn planned_trace() -> MpiTrace {
        let site = recv_site(0, crate::ANY_SOURCE, 7);
        MpiTrace {
            domains: 2,
            plan: Some(DomainPlan::with_assignments(2, [(site, 1)])),
            recv_streams: vec![vec![RecvEvent { src: 1, tag: 7 }], vec![], vec![], vec![]],
            waitany_streams: vec![vec![0], vec![], vec![], vec![]],
            checkpoint: None,
        }
    }

    #[test]
    fn manifest_lines_the_writer_never_writes_are_corrupt() {
        // These used to load: a damaged `plan 1` as a plan-less trace
        // (replay then routed receives by the hashed fallback instead of
        // the stamped plan), and `flight 1` outside v3 was dropped.
        let trace = planned_trace();
        let blobs = MemBlobs::default();
        trace.save(&blobs).unwrap();
        assert_eq!(MpiTrace::load(&blobs).unwrap(), trace);
        for manifest in [
            "rmpi-trace v2\nranks 2\ndomains 2\nplam 1\n",
            "rmpi-trace v2\nranks 2\ndomains 2\nplan 1\nflight 1\n",
            "rmpi-trace v2\nranks 2\ndomains 2\nplan 2\n",
            "rmpi-trace v1\nranks 2\nplan 1\n",
        ] {
            blobs.put(MANIFEST, manifest.as_bytes()).unwrap();
            let got = MpiTrace::load(&blobs);
            assert!(
                matches!(&got, Err(TraceError::Corrupt(msg)) if msg.contains("unknown line")),
                "{manifest:?}: {got:?}"
            );
        }
    }

    #[test]
    fn save_counts_every_byte_it_writes() {
        // Streams, sections and the manifest, in every layout version: the
        // count the benchmark's `trace_bytes_per_op` is made of.
        let cfg = MpiSessionConfig {
            flight: Some(2),
            ..MpiSessionConfig::with_domains(2)
        };
        let flight = MpiSession::record_with(1, cfg);
        for i in 0..5u32 {
            flight.log_recv(0, 1, i, 3);
        }
        let single = MpiTrace::single(vec![vec![RecvEvent { src: 2, tag: 5 }]], vec![vec![1]]);
        for (trace, version) in [
            (single, "v1"),
            (planned_trace(), "v2"),
            (flight.finish(), "v3"),
        ] {
            let blobs = MemBlobs::default();
            let bytes = trace.save(&blobs).unwrap();
            let names = blobs.list().unwrap();
            let held: usize = names.iter().map(|n| blobs.get(n).unwrap().len()).sum();
            assert_eq!(bytes, held as u64, "{version}: {names:?}");
            let manifest = String::from_utf8(blobs.get(MANIFEST).unwrap()).unwrap();
            assert!(manifest.starts_with(&format!("rmpi-trace {version}\n")));
        }
    }

    #[test]
    fn golden_single_domain_layout_is_byte_identical_to_legacy() {
        // The pre-domain (PR ≤ 4) writer produced exactly:
        //   manifest.txt       "rmpi-trace v1\nranks {N}\n"
        //   rank_{r}.rmpi          encode_events(recv stream)
        //   rank_{r}.waitany.rmpi  encode_events(indices as (idx, 0))
        // A D = 1 trace must keep every one of those bytes — old trace
        // directories and old tooling must notice no change.
        let trace = MpiTrace::single(
            vec![
                vec![RecvEvent { src: 2, tag: 5 }, RecvEvent { src: 1, tag: 5 }],
                vec![RecvEvent { src: 0, tag: 1 }],
            ],
            vec![vec![1, 0], vec![]],
        );
        let dir = std::env::temp_dir().join(format!("rmpi-golden-v1-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        trace.save_dir(&dir).unwrap();

        assert_eq!(
            std::fs::read(dir.join("manifest.txt")).unwrap(),
            b"rmpi-trace v1\nranks 2\n".to_vec()
        );
        for (rank, stream) in trace.recv_streams.iter().enumerate() {
            assert_eq!(
                std::fs::read(dir.join(format!("rank_{rank}.rmpi"))).unwrap(),
                encode_events(stream),
                "rank {rank} recv bytes"
            );
            let wa: Vec<RecvEvent> = trace.waitany_streams[rank]
                .iter()
                .map(|&i| RecvEvent { src: i, tag: 0 })
                .collect();
            assert_eq!(
                std::fs::read(dir.join(format!("rank_{rank}.waitany.rmpi"))).unwrap(),
                encode_events(&wa),
                "rank {rank} waitany bytes"
            );
        }
        // Exactly the legacy file set — no domain files, no plan section.
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec![
                "manifest.txt",
                "rank_0.rmpi",
                "rank_0.waitany.rmpi",
                "rank_1.rmpi",
                "rank_1.waitany.rmpi",
            ]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn golden_pre_domain_directory_loads_unchanged() {
        // A directory written byte-by-byte the way the pre-domain code did
        // it (no `domains` manifest line, per-rank files) must load into a
        // D = 1 trace and replay through the same session API.
        let dir = std::env::temp_dir().join(format!("rmpi-golden-old-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("manifest.txt"), "rmpi-trace v1\nranks 1\n").unwrap();
        let stream = vec![RecvEvent { src: 1, tag: 4 }, RecvEvent { src: 2, tag: 4 }];
        std::fs::write(dir.join("rank_0.rmpi"), encode_events(&stream)).unwrap();
        // Old directories may predate waitany files entirely.
        let trace = MpiTrace::load_dir(&dir).unwrap();
        assert_eq!(trace.domains, 1);
        assert_eq!(trace.plan, None);
        assert_eq!(trace.recv_stream(0, 0), &stream[..]);
        assert_eq!(trace.waitany_stream(0, 0), &[] as &[u32]);
        let s = MpiSession::replay(trace);
        assert_eq!(s.next_recv(0, 0).unwrap(), Some(stream[0]));
        assert_eq!(s.next_recv(0, 0).unwrap(), Some(stream[1]));
        assert_eq!(s.fully_consumed(), Some(true));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn golden_multi_domain_manifest_and_sections_pinned() {
        // Pin the v2 layout: manifest lines, per-(rank × domain) file
        // names, per-stream bytes through the event codec, and the plan
        // section through the core codec.
        let site = recv_site(0, crate::ANY_SOURCE, 3);
        let plan = DomainPlan::with_assignments(2, [(site, 1)]);
        let trace = MpiTrace {
            domains: 2,
            plan: Some(plan.clone()),
            recv_streams: vec![
                vec![RecvEvent { src: 1, tag: 0 }],
                vec![RecvEvent { src: 1, tag: 3 }],
                vec![],
                vec![],
            ],
            waitany_streams: vec![vec![0], vec![], vec![], vec![]],
            checkpoint: None,
        };
        let dir = std::env::temp_dir().join(format!("rmpi-golden-v2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        trace.save_dir(&dir).unwrap();

        assert_eq!(
            std::fs::read(dir.join("manifest.txt")).unwrap(),
            b"rmpi-trace v2\nranks 2\ndomains 2\nplan 1\n".to_vec()
        );
        for rank in 0..2u32 {
            for dom in 0..2u32 {
                assert_eq!(
                    std::fs::read(dir.join(format!("rank_{rank}.d{dom}.rmpi"))).unwrap(),
                    encode_events(trace.recv_stream(rank, dom)),
                );
            }
        }
        assert_eq!(
            std::fs::read(dir.join("plan.rmpi")).unwrap(),
            encode_plan(&plan).to_vec(),
            "plan section reuses the core codec bytes"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flight_session_bounds_retention_and_stamps_bases() {
        let cfg = MpiSessionConfig {
            flight: Some(3),
            ..MpiSessionConfig::default()
        };
        let s = MpiSession::record_with(1, cfg);
        for i in 0..10u32 {
            s.log_recv(0, 0, i, 7);
            s.log_waitany(0, 0, i);
        }
        let trace = s.finish_with_trigger(DumpTrigger::Panic);
        trace.validate().unwrap();
        // Only the last 3 events survive; the 7 evicted ones are counted.
        assert_eq!(trace.recv_stream(0, 0).len(), 3);
        assert_eq!(trace.recv_stream(0, 0)[0].src, 7);
        assert_eq!(trace.waitany_stream(0, 0), &[7, 8, 9]);
        let cp = trace.checkpoint.as_ref().unwrap();
        assert_eq!(cp.window, 3);
        assert_eq!(cp.trigger, DumpTrigger::Panic);
        assert_eq!(cp.recv_bases, vec![7]);
        assert_eq!(cp.waitany_bases, vec![7]);
    }

    #[test]
    fn flight_eviction_keeps_the_exact_tail_and_base() {
        // A long seeded recording through full windows: whatever the
        // eviction does per call, the window must end as the last
        // `window` receives, with every earlier one counted in the base.
        const RECEIVES: usize = 200_000;
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let events: Vec<RecvEvent> = (0..RECEIVES)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                RecvEvent {
                    src: (x % 7) as u32,
                    tag: (x >> 8) as u32 % 5,
                }
            })
            .collect();
        for window in [64u32, 4096] {
            let cfg = MpiSessionConfig {
                flight: Some(window),
                ..MpiSessionConfig::default()
            };
            let s = MpiSession::record_with(1, cfg);
            for e in &events {
                s.log_recv(0, 0, e.src, e.tag);
            }
            let trace = s.finish();
            let evicted = RECEIVES - window as usize;
            assert_eq!(
                trace.recv_stream(0, 0),
                &events[evicted..],
                "window {window}"
            );
            let cp = trace.checkpoint.as_ref().unwrap();
            assert_eq!(cp.recv_bases, vec![evicted as u64], "window {window}");
        }
    }

    #[test]
    fn windowed_replay_free_runs_the_evicted_prefix() {
        // Record 6 receives under a window of 2, then replay: the first 4
        // calls free-run (Ok(None), passthrough matching), the last 2 are
        // enforced against the retained tail.
        let cfg = MpiSessionConfig {
            flight: Some(2),
            ..MpiSessionConfig::default()
        };
        let rec = MpiSession::record_with(1, cfg);
        for i in 0..6u32 {
            rec.log_recv(0, 0, i, 1);
        }
        let trace = rec.finish();
        let s = MpiSession::replay(trace);
        for _ in 0..4 {
            assert_eq!(s.next_recv(0, 0).unwrap(), None, "evicted prefix free-runs");
        }
        assert_eq!(
            s.next_recv(0, 0).unwrap(),
            Some(RecvEvent { src: 4, tag: 1 })
        );
        assert_eq!(s.fully_consumed(), Some(false), "tail not fully consumed");
        assert_eq!(
            s.next_recv(0, 0).unwrap(),
            Some(RecvEvent { src: 5, tag: 1 })
        );
        assert_eq!(s.fully_consumed(), Some(true));
        assert!(s.next_recv(0, 0).is_err(), "past the tail is exhaustion");
    }

    #[test]
    fn flight_trace_roundtrips_through_the_v3_dir_layout() {
        let cfg = MpiSessionConfig {
            flight: Some(2),
            ..MpiSessionConfig::with_domains(2)
        };
        let s = MpiSession::record_with(2, cfg);
        for i in 0..5u32 {
            s.log_recv(0, 1, i, 3);
        }
        s.log_recv(1, 0, 0, 9);
        s.log_waitany(0, 0, 2);
        let trace = s.finish_with_trigger(DumpTrigger::Divergence);
        let dir = std::env::temp_dir().join(format!("rmpi-flight-v3-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        trace.save_dir(&dir).unwrap();
        let manifest = std::fs::read_to_string(dir.join("manifest.txt")).unwrap();
        assert_eq!(manifest, "rmpi-trace v3\nranks 2\ndomains 2\nflight 1\n");
        assert!(dir.join("checkpoint.rmpi").exists());
        let back = MpiTrace::load_dir(&dir).unwrap();
        assert_eq!(back, trace);
        let cp = back.checkpoint.unwrap();
        assert_eq!(cp.trigger, DumpTrigger::Divergence);
        assert_eq!(cp.recv_bases, vec![0, 3, 0, 0], "stream (0, d1) evicted 3");

        // Re-saving an unbounded trace over the dump scrubs the
        // checkpoint section and drops back to the v1 layout.
        let single = MpiTrace::single(vec![vec![RecvEvent { src: 3, tag: 3 }]], vec![vec![]]);
        single.save_dir(&dir).unwrap();
        assert!(!dir.join("checkpoint.rmpi").exists(), "stale dump scrubbed");
        assert_eq!(MpiTrace::load_dir(&dir).unwrap(), single);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_codec_rejects_corruption() {
        let cp = MpiCheckpoint {
            window: 4,
            trigger: DumpTrigger::Race,
            recv_bases: vec![1, 2],
            waitany_bases: vec![0, 3],
        };
        assert_eq!(MpiCheckpoint::decode(&cp.encode()).unwrap(), cp);
        assert!(MpiCheckpoint::decode(b"RMCP").is_err(), "truncated");
        assert!(
            MpiCheckpoint::decode(b"XXXX\x01\x00\x04\x00").is_err(),
            "magic"
        );
        let mut bytes = cp.encode();
        bytes[5] = 9; // unknown trigger code
        assert!(MpiCheckpoint::decode(&bytes).is_err());
        let mut bytes = cp.encode();
        bytes.push(0);
        assert!(MpiCheckpoint::decode(&bytes).is_err(), "trailing bytes");
        // A checkpoint whose base arity disagrees with the trace fails
        // trace validation even when the section itself decodes.
        let mut t = MpiTrace::single(vec![vec![]], vec![vec![]]);
        t.checkpoint = Some(cp);
        assert!(t.validate().is_err());
    }
}
