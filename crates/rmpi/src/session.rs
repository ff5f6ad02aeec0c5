//! The ReMPI-equivalent session: per-**(rank × domain)** wildcard-receive
//! order recording.
//!
//! Classic ReMPI keeps one receive-order record file per rank; every
//! wildcard receive and `waitany` of a rank serializes through that single
//! stream. Mirroring the thread gate's *gate domains*
//! ([`reomp_core::SessionConfig::domains`]), the recorder here partitions
//! receive **sites** — the *requested* `(src, tag)` of a call, hashed to a
//! [`SiteId`] by [`recv_site`]/[`waitany_site`] — across `D` independent
//! order streams per rank through the same [`DomainPlan`] machinery. Each
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

use crate::compress::{decode_events, encode_events};
use crate::message::MpiError;
use bytes::{Buf, Bytes, BytesMut};
use parking_lot::Mutex;
use reomp_core::codec::{decode_plan, encode_plan, get_uvarint, put_uvarint};
use reomp_core::{DomainPlan, DumpTrigger, SiteId, TraceError};
use std::collections::VecDeque;
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
        let mut buf = Bytes::copy_from_slice(bytes);
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

/// A complete receive-order trace: one stream per `(rank × domain)`
/// (ReMPI record files, sharded like the thread gate's domains).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MpiTrace {
    /// Number of receive-order domains per rank (`1` = the classic
    /// single-stream-per-rank recording).
    pub domains: u32,
    /// The site → domain plan the recording partitioned receive sites
    /// with; `None` means the hashed fallback partition
    /// ([`DomainPlan::hashed_fallback`]) over `domains`.
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

    /// The receive-order domain of `site` under this trace's partition —
    /// the stamped plan when one exists, the hashed fallback otherwise.
    #[must_use]
    pub fn domain_of(&self, site: SiteId) -> u32 {
        domain_of(self.domains, self.plan.as_ref(), site)
    }

    /// The thread-session [`DomainPlan`] this trace's partition requires
    /// of a hybrid run — the trace-side counterpart of
    /// [`MpiSession::matching_thread_plan`]: the stamped plan when one
    /// exists, else a bare plan whose hashed fallback matches the
    /// trace's own fallback partition.
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
        }
        if let Some(cp) = &self.checkpoint {
            cp.check(self.recv_streams.len())?;
        }
        Ok(())
    }

    /// Persist as one compressed file per `(rank × domain)` stream plus a
    /// manifest, mirroring ReMPI's per-process record files. Single-domain
    /// traces write the pre-domain `v1` layout **byte-identically** (old
    /// tooling keeps working); multi-domain traces write a `v2` manifest
    /// with the domain count, per-domain files carrying the domain id in
    /// their name, and — when partitioned by an explicit plan — the plan
    /// as a codec section in `plan.rmpi`. Stale record files from a
    /// previous layout in the same directory are scrubbed first and the
    /// manifest is written last.
    pub fn save_dir(&self, dir: &Path) -> Result<u64, TraceError> {
        self.validate()?;
        std::fs::create_dir_all(dir)?;
        // Hygiene (same discipline as DirStore): no manifest while the
        // directory is in flux, no stale streams from an older layout.
        let manifest_path = dir.join("manifest.txt");
        let _ = std::fs::remove_file(&manifest_path);
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_name().to_string_lossy().ends_with(".rmpi") {
                let _ = std::fs::remove_file(entry.path());
            }
        }

        let mut bytes = 0u64;
        let nranks = self.nranks();
        for rank in 0..nranks {
            for dom in 0..self.domains {
                let recv_name = if self.domains == 1 {
                    format!("rank_{rank}.rmpi")
                } else {
                    format!("rank_{rank}.d{dom}.rmpi")
                };
                let wa_name = if self.domains == 1 {
                    format!("rank_{rank}.waitany.rmpi")
                } else {
                    format!("rank_{rank}.d{dom}.waitany.rmpi")
                };
                let encoded = encode_events(self.recv_stream(rank, dom));
                bytes += encoded.len() as u64;
                std::fs::write(dir.join(recv_name), encoded)?;
                // Waitany indices ride the same event codec as `(idx, 0)`
                // pairs (delta/RLE loves the small monotone-ish values).
                let wa: Vec<RecvEvent> = self
                    .waitany_stream(rank, dom)
                    .iter()
                    .map(|&i| RecvEvent { src: i, tag: 0 })
                    .collect();
                let encoded = encode_events(&wa);
                bytes += encoded.len() as u64;
                std::fs::write(dir.join(wa_name), encoded)?;
            }
        }

        // Layout version: v1 is the pinned pre-domain single-stream
        // layout, v2 adds domain sharding, v3 adds the flight checkpoint.
        // A full (unbounded) D = 1 trace must stay byte-identical to v1.
        let mut manifest = if self.checkpoint.is_some() {
            format!(
                "rmpi-trace v3\nranks {}\ndomains {}\n",
                nranks, self.domains
            )
        } else if self.domains == 1 {
            format!("rmpi-trace v1\nranks {}\n", nranks)
        } else {
            format!(
                "rmpi-trace v2\nranks {}\ndomains {}\n",
                nranks, self.domains
            )
        };
        if self.domains > 1 {
            if let Some(plan) = &self.plan {
                let encoded = encode_plan(plan);
                bytes += encoded.len() as u64;
                std::fs::write(dir.join("plan.rmpi"), &encoded)?;
                manifest.push_str("plan 1\n");
            }
        }
        if let Some(cp) = &self.checkpoint {
            let encoded = cp.encode();
            bytes += encoded.len() as u64;
            std::fs::write(dir.join("checkpoint.rmpi"), &encoded)?;
            manifest.push_str("flight 1\n");
        }
        std::fs::write(&manifest_path, &manifest)?;
        bytes += manifest.len() as u64;
        Ok(bytes)
    }

    /// Load a trace previously written by [`MpiTrace::save_dir`] (either
    /// the pre-domain `v1` layout or the sharded `v2` layout).
    pub fn load_dir(dir: &Path) -> Result<MpiTrace, TraceError> {
        let manifest = match std::fs::read_to_string(dir.join("manifest.txt")) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(TraceError::Empty),
            other => other?,
        };
        let mut lines = manifest.lines();
        let version = match lines.next() {
            Some("rmpi-trace v1") => 1u32,
            Some("rmpi-trace v2") => 2,
            Some("rmpi-trace v3") => 3,
            _ => return Err(TraceError::Corrupt("bad rmpi manifest header".into())),
        };
        let ranks: u32 = lines
            .next()
            .and_then(|l| l.strip_prefix("ranks "))
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| TraceError::Corrupt("bad rank count".into()))?;
        let (domains, has_plan, has_flight) = if version == 1 {
            (1u32, false, false)
        } else {
            let domains = lines
                .next()
                .and_then(|l| l.strip_prefix("domains "))
                .and_then(|n| n.parse::<u32>().ok())
                .filter(|&d| d >= 1)
                .ok_or_else(|| TraceError::Corrupt("bad domain count".into()))?;
            let rest: Vec<&str> = lines.collect();
            let has_plan = rest.contains(&"plan 1");
            let has_flight = version >= 3 && rest.contains(&"flight 1");
            (domains, has_plan, has_flight)
        };
        let plan = if has_plan {
            let bytes = std::fs::read(dir.join("plan.rmpi"))?;
            Some(decode_plan(&bytes)?)
        } else {
            None
        };
        let checkpoint = if has_flight {
            let bytes = std::fs::read(dir.join("checkpoint.rmpi"))?;
            Some(MpiCheckpoint::decode(&bytes)?)
        } else {
            None
        };
        // The manifest is outside input: every (rank, domain) stream is a
        // file, so bound the declared count by the directory's entries
        // before allocating for it.
        let streams = (ranks as usize)
            .checked_mul(domains as usize)
            .filter(|&n| n <= std::fs::read_dir(dir).map_or(0, Iterator::count))
            .ok_or_else(|| {
                TraceError::Corrupt(format!(
                    "manifest declares {ranks} ranks × {domains} domains, more streams than \
                     the directory has files"
                ))
            })?;
        let mut recv_streams = Vec::with_capacity(streams);
        let mut waitany_streams = Vec::with_capacity(streams);
        for rank in 0..ranks {
            for dom in 0..domains {
                let (recv_name, wa_name) = if domains == 1 {
                    (
                        format!("rank_{rank}.rmpi"),
                        format!("rank_{rank}.waitany.rmpi"),
                    )
                } else {
                    (
                        format!("rank_{rank}.d{dom}.rmpi"),
                        format!("rank_{rank}.d{dom}.waitany.rmpi"),
                    )
                };
                let bytes = std::fs::read(dir.join(recv_name))?;
                recv_streams.push(decode_events(&bytes)?);
                let wa_path = dir.join(wa_name);
                let wa = if wa_path.exists() {
                    decode_events(&std::fs::read(wa_path)?)?
                        .into_iter()
                        .map(|e| e.src)
                        .collect()
                } else {
                    Vec::new()
                };
                waitany_streams.push(wa);
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
}

/// The `(rank × domain)` partition shared by sessions and traces: the
/// explicit plan when one is set, [`DomainPlan::hashed_fallback`]
/// otherwise. (There is no legacy-modulo variant here — rmpi had no
/// multi-domain format before the hashed partition existed.)
fn domain_of(domains: u32, plan: Option<&DomainPlan>, site: SiteId) -> u32 {
    if domains <= 1 {
        return 0;
    }
    match plan {
        Some(plan) => plan.domain_of(site),
        None => DomainPlan::hashed_fallback(domains, site),
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
#[derive(Debug, Clone)]
pub struct MpiSessionConfig {
    /// Number of receive-order domains per rank (clamped to ≥ 1). `1` —
    /// the default — reproduces the classic single-stream recording and
    /// trace layout byte-for-byte.
    pub domains: u32,
    /// Explicit receive-site → domain assignment. When set it
    /// **overrides** [`MpiSessionConfig::domains`] with its own count
    /// (mirroring [`reomp_core::SessionConfig::plan`]); the plan is
    /// stamped into the trace and reconstructed by replay.
    pub plan: Option<DomainPlan>,
    /// Replay: events retained per `(rank × domain)` stream for
    /// divergence diagnostics (`0` disables the history).
    pub history_capacity: usize,
    /// Record: `Some(n)` bounds in-situ retention to the last `n` events
    /// per `(rank × domain)` stream (the rmpi leg of the flight
    /// recorder); [`MpiSession::finish`] then stamps an [`MpiCheckpoint`]
    /// with the per-stream evicted counts. `None` (the default) retains
    /// everything, as the classic recorder does.
    pub flight: Option<u32>,
}

impl Default for MpiSessionConfig {
    fn default() -> MpiSessionConfig {
        MpiSessionConfig {
            domains: 1,
            plan: None,
            history_capacity: 16,
            flight: None,
        }
    }
}

impl MpiSessionConfig {
    /// A plan-less config over `domains` receive-order domains.
    #[must_use]
    pub fn with_domains(domains: u32) -> MpiSessionConfig {
        MpiSessionConfig {
            domains,
            ..MpiSessionConfig::default()
        }
    }

    /// Read `REOMP_DOMAINS` (the same knob the thread gate uses) for the
    /// domain count and `REOMP_FLIGHT` (shared with the thread gate's
    /// flight recorder) for the bounded-retention window; everything else
    /// stays at the defaults.
    #[must_use]
    pub fn from_env() -> MpiSessionConfig {
        let domains = std::env::var("REOMP_DOMAINS")
            .ok()
            .and_then(|s| s.parse::<u32>().ok())
            .filter(|&d| d >= 1)
            .unwrap_or(1);
        let flight = std::env::var("REOMP_FLIGHT")
            .ok()
            .and_then(|s| s.parse::<u32>().ok())
            .filter(|&n| n >= 1);
        MpiSessionConfig {
            flight,
            ..MpiSessionConfig::with_domains(domains)
        }
    }

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

/// Shared record/replay state for one [`crate::World`] run.
#[derive(Debug)]
pub struct MpiSession {
    mode: MpiMode,
    nranks: u32,
    domains: u32,
    plan: Option<DomainPlan>,
    history_capacity: usize,
    flight: Option<u32>,
    logs: Vec<Mutex<Vec<RecvEvent>>>,
    waitany_logs: Vec<Mutex<Vec<u32>>>,
    // Record + flight: events evicted per stream (the checkpoint bases).
    recv_bases: Vec<AtomicU64>,
    waitany_bases: Vec<AtomicU64>,
    cursors: Vec<AtomicUsize>,
    waitany_cursors: Vec<AtomicUsize>,
    history: Vec<Mutex<VecDeque<RecvEvent>>>,
    trace: Option<MpiTrace>,
}

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
            domains: trace.domains,
            plan: trace.plan.clone(),
            ..MpiSessionConfig::default()
        };
        Ok(Self::build(MpiMode::Replay, nranks, cfg, Some(trace)))
    }

    fn build(mode: MpiMode, nranks: u32, cfg: MpiSessionConfig, trace: Option<MpiTrace>) -> Self {
        let domains = cfg.effective_domains();
        let streams = (nranks * domains) as usize;
        MpiSession {
            mode,
            nranks,
            domains,
            plan: cfg.plan,
            history_capacity: cfg.history_capacity,
            flight: cfg.flight.map(|n| n.max(1)),
            logs: (0..streams).map(|_| Mutex::new(Vec::new())).collect(),
            waitany_logs: (0..streams).map(|_| Mutex::new(Vec::new())).collect(),
            recv_bases: (0..streams).map(|_| AtomicU64::new(0)).collect(),
            waitany_bases: (0..streams).map(|_| AtomicU64::new(0)).collect(),
            cursors: (0..streams).map(|_| AtomicUsize::new(0)).collect(),
            waitany_cursors: (0..streams).map(|_| AtomicUsize::new(0)).collect(),
            history: (0..streams).map(|_| Mutex::new(VecDeque::new())).collect(),
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
        self.domains
    }

    /// The session's receive-site plan, if it runs with one.
    #[must_use]
    pub fn plan(&self) -> Option<&DomainPlan> {
        self.plan.as_ref()
    }

    /// The receive-order domain `site` belongs to — a fixed partition
    /// record and replay compute identically.
    #[inline]
    #[must_use]
    pub fn domain_of(&self, site: SiteId) -> u32 {
        domain_of(self.domains, self.plan.as_ref(), site)
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
        self.plan
            .clone()
            .unwrap_or_else(|| DomainPlan::new(self.domains))
    }

    fn stream_index(&self, rank: u32, dom: u32) -> usize {
        debug_assert!(rank < self.nranks && dom < self.domains);
        (rank * self.domains + dom) as usize
    }

    fn push_history(&self, stream: usize, ev: RecvEvent) {
        if self.history_capacity == 0 {
            return;
        }
        let mut h = self.history[stream].lock();
        if h.len() == self.history_capacity {
            h.pop_front();
        }
        h.push_back(ev);
    }

    fn history_snapshot(&self, stream: usize) -> Vec<RecvEvent> {
        // Newest first, like the thread gate's divergence history.
        self.history[stream].lock().iter().rev().copied().collect()
    }

    /// Record one matched wildcard receive into `(rank, dom)` (record mode
    /// only). With a flight window the stream retains only the last
    /// `window` events; the evicted count accumulates into the
    /// checkpoint base for this stream.
    pub fn log_recv(&self, rank: u32, dom: u32, src: u32, tag: u32) {
        if self.mode == MpiMode::Record {
            let stream = self.stream_index(rank, dom);
            let mut log = self.logs[stream].lock();
            log.push(RecvEvent { src, tag });
            if let Some(window) = self.flight {
                let excess = log.len().saturating_sub(window as usize);
                if excess > 0 {
                    log.drain(..excess);
                    self.recv_bases[stream].fetch_add(excess as u64, Ordering::Relaxed);
                }
            }
        }
    }

    /// Replay mode: the `(src, tag)` the next wildcard receive of
    /// `(rank, dom)` must match.
    pub fn next_recv(&self, rank: u32, dom: u32) -> Result<Option<RecvEvent>, MpiError> {
        if self.mode != MpiMode::Replay {
            return Ok(None);
        }
        let trace = self.trace.as_ref().expect("replay has trace");
        let stream = self.stream_index(rank, dom);
        let pos = self.cursors[stream].fetch_add(1, Ordering::Relaxed);
        // Windowed replay: the first `base` receives of this stream were
        // evicted before the dump — free-run them (no enforcement is
        // possible) and start enforcing at the retained tail.
        let base = trace
            .checkpoint
            .as_ref()
            .map_or(0, |cp| cp.recv_bases[stream] as usize);
        let Some(pos) = pos.checked_sub(base) else {
            return Ok(None);
        };
        match trace.recv_stream(rank, dom).get(pos).copied() {
            Some(ev) => {
                self.push_history(stream, ev);
                Ok(Some(ev))
            }
            None => Err(MpiError::ReplayExhausted {
                rank,
                domain: dom,
                consumed: trace.recv_stream(rank, dom).len(),
                history: self.history_snapshot(stream),
            }),
        }
    }

    /// Record one `waitany` completion choice into `(rank, dom)` (record
    /// mode only). Flight windows bound this stream exactly like
    /// [`MpiSession::log_recv`].
    pub fn log_waitany(&self, rank: u32, dom: u32, index: u32) {
        if self.mode == MpiMode::Record {
            let stream = self.stream_index(rank, dom);
            let mut log = self.waitany_logs[stream].lock();
            log.push(index);
            if let Some(window) = self.flight {
                let excess = log.len().saturating_sub(window as usize);
                if excess > 0 {
                    log.drain(..excess);
                    self.waitany_bases[stream].fetch_add(excess as u64, Ordering::Relaxed);
                }
            }
        }
    }

    /// Replay mode: the request index the next `waitany` of `(rank, dom)`
    /// must complete.
    pub fn next_waitany(&self, rank: u32, dom: u32) -> Result<Option<u32>, MpiError> {
        if self.mode != MpiMode::Replay {
            return Ok(None);
        }
        let trace = self.trace.as_ref().expect("replay has trace");
        let stream = self.stream_index(rank, dom);
        let pos = self.waitany_cursors[stream].fetch_add(1, Ordering::Relaxed);
        let base = trace
            .checkpoint
            .as_ref()
            .map_or(0, |cp| cp.waitany_bases[stream] as usize);
        let Some(pos) = pos.checked_sub(base) else {
            return Ok(None);
        };
        match trace.waitany_stream(rank, dom).get(pos).copied() {
            Some(idx) => Ok(Some(idx)),
            None => Err(MpiError::WaitanyExhausted {
                rank,
                domain: dom,
                consumed: trace.waitany_stream(rank, dom).len(),
            }),
        }
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
            recv_bases: self
                .recv_bases
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            waitany_bases: self
                .waitany_bases
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        });
        MpiTrace {
            domains: self.domains,
            plan: self.plan.clone(),
            recv_streams: self
                .logs
                .iter()
                .map(|l| std::mem::take(&mut *l.lock()))
                .collect(),
            waitany_streams: self
                .waitany_logs
                .iter()
                .map(|l| std::mem::take(&mut *l.lock()))
                .collect(),
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
            for dom in 0..self.domains {
                let stream = self.stream_index(rank, dom);
                // Windowed replays free-run the first `base` calls of a
                // stream; only calls past the base consume the recording.
                let (recv_base, wa_base) = trace.checkpoint.as_ref().map_or((0, 0), |cp| {
                    (
                        cp.recv_bases[stream] as usize,
                        cp.waitany_bases[stream] as usize,
                    )
                });
                let recv_recorded = trace.recv_stream(rank, dom).len();
                let recv_consumed = self.cursors[stream]
                    .load(Ordering::Relaxed)
                    .saturating_sub(recv_base)
                    .min(recv_recorded);
                let waitany_recorded = trace.waitany_stream(rank, dom).len();
                let waitany_consumed = self.waitany_cursors[stream]
                    .load(Ordering::Relaxed)
                    .saturating_sub(wa_base)
                    .min(waitany_recorded);
                if recv_consumed < recv_recorded || waitany_consumed < waitany_recorded {
                    out.push(MpiDivergence {
                        rank,
                        domain: dom,
                        recv_consumed,
                        recv_recorded,
                        waitany_consumed,
                        waitany_recorded,
                        history: self.history_snapshot(stream),
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
            domains: 2,
            flight: Some(2),
            ..MpiSessionConfig::default()
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
