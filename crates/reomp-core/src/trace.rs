//! In-memory trace representations (the contents of record files).
//!
//! * DC/DE produce one [`ThreadTrace`] per thread (Fig. 3-(b)): the
//!   sequence of clock/epoch values at which that thread passed gates, in
//!   the thread's program order.
//! * ST produces a single shared [`StTrace`] (Fig. 3-(a)): the global
//!   sequence of thread IDs in gate-passage order.
//!
//! Traces optionally carry the [`SiteId`] and [`AccessKind`] of every
//! access ("validated" traces) so replay divergence can be detected.
//!
//! # Gate domains
//!
//! A bundle recorded with `D` *gate domains* (see
//! [`SessionConfig::plan`](crate::session::SessionConfig::plan))
//! holds one independent order stream **per domain**: sites are statically
//! partitioned across domains, each domain runs its own gate lock and
//! clock, and ordering is only recorded *within* a domain. The layout is
//! flat and domain-major: `threads[dom * nthreads + tid]` is thread `tid`'s
//! stream in domain `dom`, and `st[dom]` is domain `dom`'s shared ST
//! stream. With `D = 1` (the default) this degenerates to exactly the
//! classic single-gate layout — `threads[tid]` indexes as before.
//!
//! Multi-domain bundles additionally carry:
//!
//! * [`TraceBundle::plan`] — the [`DomainPlan`] the recording routed
//!   sites with, so replay reconstructs the identical map
//!   ([`TraceBundle::partition`]);
//! * [`TraceBundle::edges`] — sparse **cross-domain happens-before
//!   edges** ([`CrossDomainEdge`]) stamped at barrier and critical-section
//!   gates. Each edge anchors at one recorded access and lists the minimum
//!   number of completed accesses the recording observed in *other*
//!   domains at that point; replay's per-domain turnstiles wait for those
//!   counts before admitting the anchor, restoring inter-domain order at
//!   synchronization points.
//!
//! [`TraceBundle::linearize`] rebuilds the one order all of this
//! describes — each domain's chain, merged through the edges — for the
//! tools that read traces: analysis, verification and offline race
//! detection.

use crate::error::TraceError;
use crate::plan::DomainPlan;
use crate::session::Scheme;
use crate::site::{AccessKind, SiteId};
use std::collections::HashMap;

/// Per-thread record stream (DC/DE).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadTrace {
    /// Clock (DC) or epoch (DE) of each gate passage, in program order.
    pub values: Vec<u64>,
    /// Raw site hash per access. Every recording writes it; `None` only
    /// in a trace without validation columns (an older file).
    pub sites: Option<Vec<u64>>,
    /// Kind code per access, present exactly when `sites` is.
    pub kinds: Option<Vec<u8>>,
}

impl ThreadTrace {
    /// Number of recorded accesses.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no accesses were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Site of access `i`, if validation data is present.
    #[must_use]
    pub fn site_at(&self, i: usize) -> Option<SiteId> {
        self.sites.as_ref()?.get(i).map(|&raw| SiteId(raw))
    }

    /// Kind of access `i`, if validation data is present.
    #[must_use]
    pub fn kind_at(&self, i: usize) -> Option<AccessKind> {
        AccessKind::from_code(*self.kinds.as_ref()?.get(i)?)
    }

    pub(crate) fn check(&self, who: &str) -> Result<(), TraceError> {
        if let Some(sites) = &self.sites {
            if sites.len() != self.values.len() {
                return Err(TraceError::Corrupt(format!(
                    "{who}: {} sites for {} values",
                    sites.len(),
                    self.values.len()
                )));
            }
        }
        if let Some(kinds) = &self.kinds {
            if kinds.len() != self.values.len() {
                return Err(TraceError::Corrupt(format!(
                    "{who}: {} kinds for {} values",
                    kinds.len(),
                    self.values.len()
                )));
            }
            check_kinds(who, kinds)?;
        }
        Ok(())
    }
}

/// `Corrupt` unless every byte of `kinds` is an [`AccessKind`] code: the
/// codes run from 0 to [`AccessKind::MpiOp`] without a gap.
fn check_kinds(who: &str, kinds: &[u8]) -> Result<(), TraceError> {
    match first_above(kinds, AccessKind::MpiOp.code()) {
        Some(at) => Err(TraceError::Corrupt(format!(
            "{who}: bad kind code {}",
            kinds[at]
        ))),
        None => Ok(()),
    }
}

/// Where the first element of `column` above `last` is. The maximum of a
/// block vectorizes, so a column within bounds costs one pass with no
/// branch per element; only a failing block is searched.
pub(crate) fn first_above<T: Copy + Ord + Default>(column: &[T], last: T) -> Option<usize> {
    let blocks = column.chunks(512).enumerate();
    let mut over = blocks.filter(|(_, b)| b.iter().fold(T::default(), |m, &x| m.max(x)) > last);
    let (at, block) = over.next()?;
    block.iter().position(|&x| x > last).map(|i| at * 512 + i)
}

/// The single shared record stream of ST recording.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StTrace {
    /// Thread IDs in the order threads passed gates.
    pub tids: Vec<u32>,
    /// Raw site hash per access. Every recording writes it; `None` only
    /// in a trace without validation columns (an older file).
    pub sites: Option<Vec<u64>>,
    /// Kind code per access, present exactly when `sites` is.
    pub kinds: Option<Vec<u8>>,
}

impl StTrace {
    /// Number of recorded accesses.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tids.len()
    }

    /// Whether no accesses were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tids.is_empty()
    }

    /// Site of access `i`, if validation data is present.
    #[must_use]
    pub fn site_at(&self, i: usize) -> Option<SiteId> {
        self.sites.as_ref()?.get(i).map(|&raw| SiteId(raw))
    }

    /// Kind of access `i`, if validation data is present.
    #[must_use]
    pub fn kind_at(&self, i: usize) -> Option<AccessKind> {
        AccessKind::from_code(*self.kinds.as_ref()?.get(i)?)
    }

    /// `nthreads` is at least 1: the structural tier checks it first.
    pub(crate) fn check(&self, nthreads: u32) -> Result<(), TraceError> {
        if let Some(at) = first_above(&self.tids, nthreads - 1) {
            return Err(TraceError::Corrupt(format!(
                "st trace references thread {} but only {nthreads} threads recorded",
                self.tids[at]
            )));
        }
        if let Some(sites) = &self.sites {
            if sites.len() != self.tids.len() {
                return Err(TraceError::Corrupt("st trace site column length".into()));
            }
        }
        if let Some(kinds) = &self.kinds {
            if kinds.len() != self.tids.len() {
                return Err(TraceError::Corrupt("st trace kind column length".into()));
            }
            check_kinds("st trace", kinds)?;
        }
        Ok(())
    }
}

/// One cross-domain happens-before edge.
///
/// Recorded at a barrier or critical-section gate of a multi-domain
/// session: *before* the anchor access (identified by its domain plus its
/// position) may run in replay, every listed domain's turnstile must have
/// completed at least the listed number of accesses. The counts are
/// snapshots of the other domains' record-side clocks taken under the
/// anchor's gate lock, so the recorded execution itself always satisfies
/// its own edges — replay enforcing them can never deadlock on a genuine
/// trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossDomainEdge {
    /// Gate domain of the anchor access.
    pub domain: u32,
    /// Thread that performed the anchor access (diagnostic for DC/DE,
    /// where it also keys the anchor; informational for ST).
    pub thread: u32,
    /// Position of the anchor: the access's index in `thread`'s per-domain
    /// stream (DC/DE), or its index in the domain's shared stream (ST).
    pub seq: u64,
    /// Sparse per-domain clock stamps: `(other domain, minimum completed
    /// access count)`. Never names the anchor's own domain.
    pub waits: Vec<(u32, u64)>,
}

/// Why a flight-recorder window was materialized into a store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DumpTrigger {
    /// Explicit [`Session::dump`](crate::session::Session::dump) call.
    #[default]
    Manual,
    /// The process panic hook fired while recording.
    Panic,
    /// A linked replay session reported a divergence.
    Divergence,
    /// The race detector reported a race.
    Race,
}

impl DumpTrigger {
    /// Every trigger, for sweeps in tests and docs.
    pub const ALL: [DumpTrigger; 4] = [
        DumpTrigger::Manual,
        DumpTrigger::Panic,
        DumpTrigger::Divergence,
        DumpTrigger::Race,
    ];

    /// Stable on-disk code (checkpoint section byte).
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            DumpTrigger::Manual => 0,
            DumpTrigger::Panic => 1,
            DumpTrigger::Divergence => 2,
            DumpTrigger::Race => 3,
        }
    }

    /// Inverse of [`DumpTrigger::code`].
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => DumpTrigger::Manual,
            1 => DumpTrigger::Panic,
            2 => DumpTrigger::Divergence,
            3 => DumpTrigger::Race,
            _ => return None,
        })
    }

    /// Human-readable trigger name (used by `reomp-inspect`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DumpTrigger::Manual => "manual",
            DumpTrigger::Panic => "panic",
            DumpTrigger::Divergence => "divergence",
            DumpTrigger::Race => "race",
        }
    }
}

impl std::fmt::Display for DumpTrigger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Checkpoint of a bounded (flight-recorder) recording: the state replay
/// needs to start *mid-run*, at the front of the retained window, instead
/// of at clock 0.
///
/// A flight recorder retains only the last N chunks per (thread, domain)
/// stream; everything older is evicted. Eviction is domain-prefix-shaped
/// (all records with clock `< base[d]` are gone, nothing newer is), so a
/// single per-domain count captures the whole discarded history: replay
/// seeds domain `d`'s turnstile at `base[d]` and the retained records —
/// whose clocks all are `>= base[d]` — admit exactly as they did live.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Checkpoint {
    /// Per-domain count of records evicted before the retained window —
    /// the clock value the window starts at (`0`: nothing evicted there).
    pub base: Vec<u64>,
    /// DE only: per-domain clock floor at dump time (the epoch trackers
    /// were flushed down to these). Empty for ST/DC. Provenance for
    /// inspection; replay derives everything it needs from `base`.
    pub floors: Vec<u64>,
    /// Retained-window size the recorder ran with (chunks per stream).
    pub window: u32,
    /// What caused the window to be materialized.
    pub trigger: DumpTrigger,
}

impl Checkpoint {
    /// Clock base of domain `dom` (0 when out of range, matching the
    /// unbounded default).
    #[must_use]
    pub fn base_of(&self, dom: u32) -> u64 {
        self.base.get(dom as usize).copied().unwrap_or(0)
    }

    /// Structural consistency against the owning bundle's domain count.
    pub fn check(&self, domains: u32) -> Result<(), TraceError> {
        if self.base.len() != domains as usize {
            return Err(TraceError::Corrupt(format!(
                "checkpoint has {} clock bases for {domains} domains",
                self.base.len()
            )));
        }
        if !self.floors.is_empty() && self.floors.len() != domains as usize {
            return Err(TraceError::Corrupt(format!(
                "checkpoint has {} epoch floors for {domains} domains",
                self.floors.len()
            )));
        }
        Ok(())
    }
}

/// One access of the order [`TraceBundle::linearize`] reconstructs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderedAccess {
    /// Gate domain the access was recorded in (0 for single-domain runs).
    pub domain: u32,
    /// Position of the access in its stream: the domain's shared stream
    /// (ST) or `thread`'s stream in the domain (DC/DE). Edge anchors name
    /// accesses by it.
    pub seq: u64,
    /// Recorded value: clock (DC), epoch (DE), or `seq` (ST).
    pub value: u64,
    /// Executing thread.
    pub thread: u32,
    /// Site, when the trace carries validation columns.
    pub site: Option<SiteId>,
    /// Kind, when the trace carries validation columns.
    pub kind: Option<AccessKind>,
}

/// The recorded order of a bundle, from [`TraceBundle::linearize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Linearization {
    /// Every recorded access, exactly once.
    pub accesses: Vec<OrderedAccess>,
    /// Whether the cross-domain edges admit an interleaving (always true
    /// for a genuine recording; `false` flags cyclic, corrupt edges).
    pub consistent: bool,
}

/// A complete recording: everything needed to replay one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceBundle {
    /// Recording scheme that produced (and must replay) this bundle.
    pub scheme: Scheme,
    /// Number of threads in the recorded run.
    pub nthreads: u32,
    /// Number of gate domains (`1` = classic single-gate recording).
    pub domains: u32,
    /// Per-domain per-thread streams, flat and domain-major: index
    /// `dom * nthreads + tid`. Empty traces for ST, which uses `st`.
    pub threads: Vec<ThreadTrace>,
    /// Shared ST streams, one per domain (non-empty iff
    /// `scheme == Scheme::St`).
    pub st: Vec<StTrace>,
    /// The site map the recording was made with; `None` for plan-less
    /// recordings (see [`TraceBundle::partition`]).
    pub plan: Option<DomainPlan>,
    /// Cross-domain happens-before edges (empty for single-domain
    /// bundles and for traces from before edges existed).
    pub edges: Vec<CrossDomainEdge>,
    /// Flight-recorder checkpoint of a bounded (windowed) recording:
    /// clocks start at [`Checkpoint::base`] instead of 0. `None` for
    /// classic unbounded bundles.
    pub checkpoint: Option<Checkpoint>,
}

impl TraceBundle {
    /// Thread `tid`'s stream in domain `dom`.
    ///
    /// # Panics
    /// Panics when `dom >= domains` or `tid >= nthreads`.
    #[must_use]
    pub fn thread(&self, dom: u32, tid: u32) -> &ThreadTrace {
        assert!(dom < self.domains && tid < self.nthreads);
        &self.threads[(dom * self.nthreads + tid) as usize]
    }

    /// Domain `dom`'s shared ST stream, if this is an ST bundle.
    #[must_use]
    pub fn st_stream(&self, dom: u32) -> Option<&StTrace> {
        self.st.get(dom as usize)
    }

    /// The site map this bundle was recorded under, and so replays under:
    /// the stamped plan; else, for a plan-less multi-domain bundle, the
    /// `raw % D` partition such recordings were made with; else one
    /// domain.
    #[must_use]
    pub fn partition(&self) -> DomainPlan {
        match &self.plan {
            Some(plan) => plan.clone(),
            None if self.domains > 1 => DomainPlan::legacy_modulo(self.domains),
            None => DomainPlan::new(1),
        }
    }

    /// Whether this bundle uses the shared-stream (ST) layout.
    #[must_use]
    pub fn is_st(&self) -> bool {
        !self.st.is_empty()
    }

    /// The clock value domain `dom`'s record streams start at: the number
    /// of records the flight recorder evicted before the retained window,
    /// or 0 for unbounded bundles.
    #[must_use]
    pub fn clock_base(&self, dom: u32) -> u64 {
        self.checkpoint.as_ref().map_or(0, |cp| cp.base_of(dom))
    }

    /// Structural consistency check; run after decoding and before replay.
    ///
    /// This is a thin wrapper over the [`verify`](crate::verify) module's
    /// Structural tier — the single implementation both this method and
    /// [`Verifier::verify`](crate::verify::Verifier::verify) run, so the
    /// two checkers cannot drift. The error surface is unchanged: the
    /// first violated invariant comes back as [`TraceError::Corrupt`].
    pub fn validate(&self) -> Result<(), TraceError> {
        crate::verify::structural(self)
    }

    /// Number of recorded accesses in one domain.
    #[must_use]
    pub fn domain_records(&self, dom: u32) -> u64 {
        if self.is_st() {
            self.st
                .get(dom as usize)
                .map(|st| st.len() as u64)
                .unwrap_or(0)
        } else {
            let n = self.nthreads.max(1) as usize;
            self.threads
                .iter()
                .skip(dom as usize * n)
                .take(n)
                .map(|t| t.len() as u64)
                .sum()
        }
    }

    /// Merged edge-wait index keyed by anchor. For ST bundles the key is
    /// `(domain, 0, stream index)`; for DC/DE it is
    /// `(domain, thread, per-thread index)`. Multiple edges on one anchor
    /// merge by taking the maximum wait per foreign domain.
    #[must_use]
    pub fn edge_index(&self) -> HashMap<(u32, u32, u64), Vec<(u32, u64)>> {
        let mut map: HashMap<(u32, u32, u64), Vec<(u32, u64)>> = HashMap::new();
        let st = self.is_st();
        for e in &self.edges {
            let key = (e.domain, if st { 0 } else { e.thread }, e.seq);
            let waits = map.entry(key).or_default();
            for &(dom, count) in &e.waits {
                match waits.iter_mut().find(|(d, _)| *d == dom) {
                    Some((_, c)) => *c = (*c).max(count),
                    None => waits.push((dom, count)),
                }
            }
        }
        map
    }

    /// Total recorded accesses across all streams and domains.
    #[must_use]
    pub fn total_records(&self) -> u64 {
        if self.is_st() {
            self.st.iter().map(|st| st.len() as u64).sum()
        } else {
            self.threads.iter().map(|t| t.len() as u64).sum()
        }
    }

    /// Whether the bundle carries per-access validation columns.
    #[must_use]
    pub fn has_validation(&self) -> bool {
        if self.is_st() {
            self.st.iter().all(|st| st.sites.is_some())
        } else {
            self.threads.iter().all(|t| t.sites.is_some())
        }
    }

    /// Reconstruct the recorded order: every access exactly once.
    ///
    /// Each domain keeps its own order — ST stream order; DC/DE by
    /// `(value, thread, seq)`, so DE breaks an epoch's ties by thread —
    /// and the cross-domain edges merge the domains: an anchor follows
    /// every foreign access it waits on. Edge-less domains follow one
    /// another (domain-major), as nothing orders them. Where every
    /// domain's next access waits on an edge, a DE domain may go on with
    /// another member of that access's epoch, as its replay does.
    /// Domains are tried lowest first, so the order is deterministic.
    ///
    /// Cyclic edges (corrupt input) leave a remainder no merge admits; it
    /// is appended domain-major and [`Linearization::consistent`] is
    /// `false`, so callers still see every access.
    #[must_use]
    pub fn linearize(&self) -> Linearization {
        let per_domain: Vec<Vec<OrderedAccess>> = if self.is_st() {
            self.st
                .iter()
                .zip(0..)
                .map(|(st, domain)| {
                    (0..st.len())
                        .map(|i| OrderedAccess {
                            domain,
                            seq: i as u64,
                            value: i as u64,
                            thread: st.tids[i],
                            site: st.site_at(i),
                            kind: st.kind_at(i),
                        })
                        .collect()
                })
                .collect()
        } else {
            // A stream's thread is its flat index modulo `nthreads`, never
            // a narrowing of the flat index.
            let n = self.nthreads.max(1) as usize;
            self.threads
                .chunks(n)
                .zip(0..)
                .map(|(streams, domain)| {
                    let mut order: Vec<OrderedAccess> = streams
                        .iter()
                        .zip(0..)
                        .flat_map(|(t, thread)| {
                            (0..t.len()).map(move |i| OrderedAccess {
                                domain,
                                seq: i as u64,
                                value: t.values[i],
                                thread,
                                site: t.site_at(i),
                                kind: t.kind_at(i),
                            })
                        })
                        .collect();
                    order.sort_unstable_by_key(|a| (a.value, a.thread, a.seq));
                    order
                })
                .collect()
        };
        let index = self.edge_index();
        let st = self.is_st();
        let waits_met = |a: &OrderedAccess, emitted: &[u64]| {
            let key = (a.domain, if st { 0 } else { a.thread }, a.seq);
            index.get(&key).is_none_or(|waits| {
                waits
                    .iter()
                    .all(|&(j, c)| emitted.get(j as usize).is_some_and(|&e| e >= c))
            })
        };
        let mut done: Vec<Vec<bool>> = per_domain.iter().map(|o| vec![false; o.len()]).collect();
        let mut next = vec![0usize; per_domain.len()];
        // Edge waits are absolute completed-access counts; a windowed
        // bundle's domains already completed `clock_base` accesses before
        // the retained window starts.
        let mut emitted: Vec<u64> = (0..per_domain.len() as u32)
            .map(|dom| self.clock_base(dom))
            .collect();
        let mut accesses = Vec::with_capacity(self.total_records() as usize);
        loop {
            // The head of the lowest domain whose edge waits are met; when
            // every head waits, another access of a head's value that is its
            // thread's next. Only a DE epoch has such siblings: its members
            // are mutually unordered, so an anchor does not hold them back.
            let heads = (0..per_domain.len()).map(|dom| (dom, next[dom]));
            let siblings = (0..per_domain.len()).flat_map(|dom| {
                let order = &per_domain[dom];
                let head = order.get(next[dom]).map(|a| a.value);
                (next[dom] + 1..order.len())
                    .take_while(move |&i| Some(order[i].value) == head)
                    .map(move |i| (dom, i))
            });
            let Some((dom, i)) = heads.chain(siblings).find(|&(dom, i)| {
                let (order, done) = (&per_domain[dom], &done[dom]);
                order.get(i).is_some_and(|a| {
                    !done[i]
                        && (i == next[dom] || done[i - 1] || order[i - 1].thread != a.thread)
                        && waits_met(a, &emitted)
                })
            }) else {
                break;
            };
            accesses.push(per_domain[dom][i]);
            done[dom][i] = true;
            emitted[dom] += 1;
            while done[dom].get(next[dom]) == Some(&true) {
                next[dom] += 1;
            }
        }
        // Cyclic edges: the accesses no merge admits follow, domain-major.
        let consistent = accesses.len() == done.iter().map(Vec::len).sum::<usize>();
        for (order, done) in per_domain.iter().zip(&done) {
            accesses.extend(order.iter().zip(done).filter(|(_, &d)| !d).map(|(a, _)| *a));
        }
        Linearization {
            accesses,
            consistent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dc_bundle() -> TraceBundle {
        TraceBundle {
            plan: None,
            edges: vec![],
            checkpoint: None,
            scheme: Scheme::Dc,
            nthreads: 2,
            domains: 1,
            threads: vec![
                ThreadTrace {
                    values: vec![0, 3],
                    sites: Some(vec![1, 1]),
                    kinds: Some(vec![0, 1]),
                },
                ThreadTrace {
                    values: vec![1, 2],
                    sites: Some(vec![1, 1]),
                    kinds: Some(vec![0, 0]),
                },
            ],
            st: vec![],
        }
    }

    /// Two domains, each an independent DC clock permutation.
    fn dc_bundle_two_domains() -> TraceBundle {
        TraceBundle {
            plan: None,
            edges: vec![],
            checkpoint: None,
            scheme: Scheme::Dc,
            nthreads: 2,
            domains: 2,
            threads: vec![
                // domain 0
                ThreadTrace {
                    values: vec![0, 2],
                    sites: None,
                    kinds: None,
                },
                ThreadTrace {
                    values: vec![1],
                    sites: None,
                    kinds: None,
                },
                // domain 1
                ThreadTrace {
                    values: vec![1],
                    sites: None,
                    kinds: None,
                },
                ThreadTrace {
                    values: vec![0],
                    sites: None,
                    kinds: None,
                },
            ],
            st: vec![],
        }
    }

    #[test]
    fn valid_dc_bundle_passes() {
        dc_bundle().validate().unwrap();
        assert_eq!(dc_bundle().total_records(), 4);
        assert!(dc_bundle().has_validation());
    }

    #[test]
    fn dc_clock_permutation_enforced() {
        let mut b = dc_bundle();
        b.threads[0].values = vec![0, 5];
        b.threads[0].sites = Some(vec![1, 1]);
        assert!(b.validate().is_err());
    }

    #[test]
    fn multi_domain_dc_clocks_are_checked_per_domain() {
        let b = dc_bundle_two_domains();
        b.validate().unwrap();
        assert_eq!(b.total_records(), 5);
        assert_eq!(b.thread(0, 0).values, vec![0, 2]);
        assert_eq!(b.thread(1, 1).values, vec![0]);

        // Clock 1 appearing twice in *one* domain is corrupt even though
        // the multiset over all domains would still look like a run.
        let mut bad = dc_bundle_two_domains();
        bad.threads[3].values = vec![1];
        let err = bad.validate().unwrap_err();
        assert!(err.to_string().contains("domain 1"), "{err}");
    }

    #[test]
    fn domain_thread_count_mismatch_detected() {
        let mut b = dc_bundle_two_domains();
        b.threads.pop();
        assert!(b.validate().is_err());
        let mut b = dc_bundle();
        b.domains = 0;
        assert!(b.validate().is_err());
    }

    #[test]
    fn st_bundle_requires_stream_and_valid_tids() {
        let b = TraceBundle {
            plan: None,
            edges: vec![],
            checkpoint: None,
            scheme: Scheme::St,
            nthreads: 2,
            domains: 1,
            threads: vec![ThreadTrace::default(), ThreadTrace::default()],
            st: vec![],
        };
        assert!(b.validate().is_err());

        let b = TraceBundle {
            plan: None,
            edges: vec![],
            checkpoint: None,
            scheme: Scheme::St,
            nthreads: 2,
            domains: 1,
            threads: vec![ThreadTrace::default(), ThreadTrace::default()],
            st: vec![StTrace {
                tids: vec![0, 1, 5],
                sites: None,
                kinds: None,
            }],
        };
        assert!(b.validate().is_err());
    }

    #[test]
    fn st_bundle_needs_one_stream_per_domain() {
        let b = TraceBundle {
            plan: None,
            edges: vec![],
            checkpoint: None,
            scheme: Scheme::St,
            nthreads: 1,
            domains: 2,
            threads: vec![ThreadTrace::default(), ThreadTrace::default()],
            st: vec![StTrace {
                tids: vec![0],
                sites: None,
                kinds: None,
            }],
        };
        let err = b.validate().unwrap_err();
        assert!(err.to_string().contains("st streams"), "{err}");
    }

    #[test]
    fn column_length_mismatch_detected() {
        let mut b = dc_bundle();
        b.threads[1].sites = Some(vec![1]);
        assert!(b.validate().is_err());
        let mut b = dc_bundle();
        b.threads[1].kinds = Some(vec![0, 200]);
        assert!(b.validate().is_err(), "bad kind code");
    }

    #[test]
    fn first_above_finds_the_first_element_across_blocks() {
        assert_eq!(first_above(&[6u8; 1500], 6), None);
        assert_eq!(first_above::<u32>(&[], 0), None);
        for at in [0, 1, 511, 512, 513, 1499] {
            let mut v = vec![3u32; 1500];
            v[at] = 9;
            v[1499.min(at + 600)] = 8;
            assert_eq!(first_above(&v, 6), Some(at));
        }
        // The kind check agrees with `AccessKind::from_code` on every byte.
        for code in 0..=u8::MAX {
            let valid = check_kinds("t", &[0, code, 1]).is_ok();
            assert_eq!(valid, AccessKind::from_code(code).is_some(), "{code}");
        }
    }

    #[test]
    fn global_order_sorts_clocks() {
        // A single-domain DC bundle linearizes by clock, whichever thread
        // holds it.
        let lin = dc_bundle().linearize();
        assert!(lin.consistent);
        assert_eq!(
            lin.accesses
                .iter()
                .map(|a| (a.value, a.thread))
                .collect::<Vec<_>>(),
            vec![(0, 0), (1, 1), (2, 1), (3, 0)]
        );
    }

    #[test]
    fn linearize_recovers_tid_modulo_nthreads() {
        // Regression: the thread index used to be a raw `as u32` narrowing
        // of the flat vector index, which for multi-domain bundles is the
        // *stream* index, not the thread id.
        let lin = dc_bundle_two_domains().linearize();
        assert_eq!(
            lin.accesses
                .iter()
                .map(|a| (a.domain, a.value, a.thread))
                .collect::<Vec<_>>(),
            vec![(0, 0, 0), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0)]
        );
    }

    fn edge(domain: u32, thread: u32, seq: u64, waits: Vec<(u32, u64)>) -> CrossDomainEdge {
        CrossDomainEdge {
            domain,
            thread,
            seq,
            waits,
        }
    }

    #[test]
    fn edges_validate_structurally() {
        let mut b = dc_bundle_two_domains();
        // Valid: thread 0's access #1 in domain 0 waits for 1 access in
        // domain 1.
        b.edges = vec![edge(0, 0, 1, vec![(1, 1)])];
        b.validate().unwrap();

        // Anchor beyond the stream.
        let mut bad = dc_bundle_two_domains();
        bad.edges = vec![edge(0, 0, 9, vec![(1, 1)])];
        assert!(bad.validate().is_err());
        // Wait on own domain.
        let mut bad = dc_bundle_two_domains();
        bad.edges = vec![edge(0, 0, 0, vec![(0, 1)])];
        assert!(bad.validate().is_err());
        // Wait count exceeds the domain's records (domain 1 has 2).
        let mut bad = dc_bundle_two_domains();
        bad.edges = vec![edge(0, 0, 0, vec![(1, 3)])];
        assert!(bad.validate().is_err());
        // Edges in a single-domain bundle.
        let mut bad = dc_bundle();
        bad.edges = vec![edge(0, 0, 0, vec![(1, 1)])];
        assert!(bad.validate().is_err());
        // Plan domain count must match the bundle.
        let mut bad = dc_bundle_two_domains();
        bad.plan = Some(crate::plan::DomainPlan::new(3));
        assert!(bad.validate().is_err());
        let mut ok = dc_bundle_two_domains();
        ok.plan = Some(crate::plan::DomainPlan::new(2));
        ok.validate().unwrap();
    }

    #[test]
    fn edge_index_merges_by_max() {
        let mut b = dc_bundle_two_domains();
        b.edges = vec![edge(0, 0, 1, vec![(1, 1)]), edge(0, 0, 1, vec![(1, 2)])];
        let idx = b.edge_index();
        assert_eq!(idx.get(&(0, 0, 1)), Some(&vec![(1u32, 2u64)]));
    }

    #[test]
    fn merged_order_respects_edges() {
        // Domain 0: t0 clocks [0,2], t1 clock [1]; domain 1: t1 [0], t0 [1].
        // Edge: domain 0's access at clock 2 (t0, seq 1) must come after
        // BOTH of domain 1's accesses.
        let mut b = dc_bundle_two_domains();
        b.edges = vec![edge(0, 0, 1, vec![(1, 2)])];
        b.validate().unwrap();
        let lin = b.linearize();
        assert!(lin.consistent);
        let order: Vec<(u32, u64, u32)> = lin
            .accesses
            .iter()
            .map(|a| (a.domain, a.value, a.thread))
            .collect();
        assert_eq!(order.len(), 5);
        let pos_anchor = order.iter().position(|&o| o == (0, 2, 0)).unwrap();
        let pos_last_d1 = order
            .iter()
            .position(|&(d, v, _)| (d, v) == (1, 1))
            .unwrap();
        assert!(
            pos_anchor > pos_last_d1,
            "anchor must follow domain 1's accesses: {order:?}"
        );
        // Per-domain internal order preserved.
        let d0: Vec<u64> = order
            .iter()
            .filter(|&&(d, ..)| d == 0)
            .map(|&(_, v, _)| v)
            .collect();
        assert_eq!(d0, vec![0, 1, 2]);
        // Without the edge the domains follow one another.
        assert_eq!(
            dc_bundle_two_domains()
                .linearize()
                .accesses
                .iter()
                .map(|a| (a.domain, a.value))
                .collect::<Vec<_>>(),
            vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]
        );
    }

    #[test]
    fn cyclic_edges_linearize_inconsistently() {
        // Two edges forming a wait cycle: domain 0's first access needs
        // all of domain 1, and domain 1's first access needs all of
        // domain 0. A genuine recording can never produce this.
        let mut b = dc_bundle_two_domains();
        b.edges = vec![edge(0, 0, 0, vec![(1, 2)]), edge(1, 1, 0, vec![(0, 3)])];
        // Structurally valid…
        b.validate().unwrap();
        // …but not mergeable; every access is still there exactly once,
        // the unmergeable remainder domain-major.
        let lin = b.linearize();
        assert!(!lin.consistent);
        assert_eq!(
            lin,
            Linearization {
                consistent: false,
                ..dc_bundle_two_domains().linearize()
            }
        );
        // Its replay could only end at the watchdog: it is refused.
        let refused = crate::Session::replay(b).unwrap_err();
        assert!(refused
            .to_string()
            .contains("2 cross-domain edges admit no order"));
    }

    #[test]
    fn de_epoch_siblings_pass_a_waiting_anchor() {
        // Domain 1's epoch 0 holds t0's and t1's accesses; t0's waits for
        // domain 0, whose only access waits for one access of domain 1.
        // Ordering the epoch by thread alone would deadlock; replay runs
        // t1's access first, and so does the linearization.
        let b = TraceBundle {
            scheme: Scheme::De,
            nthreads: 2,
            domains: 2,
            threads: [vec![0], vec![], vec![0], vec![0]]
                .into_iter()
                .map(|values| ThreadTrace {
                    values,
                    sites: None,
                    kinds: None,
                })
                .collect(),
            st: vec![],
            plan: None,
            edges: vec![edge(0, 0, 0, vec![(1, 1)]), edge(1, 0, 0, vec![(0, 1)])],
            checkpoint: None,
        };
        b.validate().unwrap();
        let lin = b.linearize();
        assert!(lin.consistent);
        assert_eq!(
            lin.accesses
                .iter()
                .map(|a| (a.domain, a.thread))
                .collect::<Vec<_>>(),
            vec![(1, 1), (0, 0), (1, 0)]
        );
    }

    #[test]
    fn accessors() {
        let b = dc_bundle();
        assert_eq!(b.threads[0].site_at(0), Some(SiteId(1)));
        assert_eq!(b.threads[0].kind_at(1), Some(AccessKind::Store));
        assert_eq!(b.threads[0].kind_at(99), None);
        assert!(!b.threads[0].is_empty());
        assert_eq!(b.thread(0, 1), &b.threads[1]);
        assert_eq!(b.st_stream(0), None);
        assert!(!b.is_st());
    }

    /// A flight-recorder window of `dc_bundle`: the first 10 records were
    /// evicted, so the retained clocks are 10..14.
    fn windowed_dc_bundle() -> TraceBundle {
        let mut b = dc_bundle();
        for t in &mut b.threads {
            for v in &mut t.values {
                *v += 10;
            }
        }
        b.checkpoint = Some(Checkpoint {
            base: vec![10],
            floors: vec![],
            window: 2,
            trigger: DumpTrigger::Panic,
        });
        b
    }

    #[test]
    fn checkpoint_shifts_the_dc_permutation_base() {
        let b = windowed_dc_bundle();
        b.validate().unwrap();
        assert_eq!(b.clock_base(0), 10);
        assert_eq!(b.clock_base(7), 0, "out-of-range domain defaults to 0");

        // Without the checkpoint the shifted clocks are corrupt…
        let mut bad = windowed_dc_bundle();
        bad.checkpoint = None;
        assert!(bad.validate().is_err());
        // …and with the wrong base they are too.
        let mut bad = windowed_dc_bundle();
        bad.checkpoint.as_mut().unwrap().base = vec![9];
        assert!(bad.validate().is_err());
    }

    #[test]
    fn checkpoint_domain_arity_is_checked() {
        let mut b = dc_bundle_two_domains();
        b.checkpoint = Some(Checkpoint {
            base: vec![0],
            ..Checkpoint::default()
        });
        let err = b.validate().unwrap_err();
        assert!(err.to_string().contains("clock bases"), "{err}");

        let mut b = dc_bundle_two_domains();
        b.checkpoint = Some(Checkpoint {
            base: vec![0, 0],
            floors: vec![1, 2, 3],
            ..Checkpoint::default()
        });
        let err = b.validate().unwrap_err();
        assert!(err.to_string().contains("epoch floors"), "{err}");

        let mut b = dc_bundle_two_domains();
        b.checkpoint = Some(Checkpoint {
            base: vec![0, 0],
            floors: vec![2, 1],
            ..Checkpoint::default()
        });
        b.validate().unwrap();
    }

    #[test]
    fn edge_waits_measure_against_the_checkpoint_base() {
        // Domain 1 retains 2 records on top of 5 evicted ones: an absolute
        // wait of 7 is satisfiable, 8 is not.
        let mut b = dc_bundle_two_domains();
        for t in &mut b.threads[2..] {
            for v in &mut t.values {
                *v += 5;
            }
        }
        b.checkpoint = Some(Checkpoint {
            base: vec![0, 5],
            ..Checkpoint::default()
        });
        b.edges = vec![edge(0, 0, 1, vec![(1, 7)])];
        b.validate().unwrap();
        // The merge seeds domain 1's emitted count at its base, so the
        // anchor is admitted once both retained records are out.
        assert!(b.linearize().consistent);
        b.edges = vec![edge(0, 0, 1, vec![(1, 8)])];
        assert!(b.validate().is_err());
    }

    #[test]
    fn dump_trigger_codes_roundtrip() {
        for t in DumpTrigger::ALL {
            assert_eq!(DumpTrigger::from_code(t.code()), Some(t));
            assert!(!t.name().is_empty());
        }
        assert_eq!(DumpTrigger::from_code(9), None);
    }
}
