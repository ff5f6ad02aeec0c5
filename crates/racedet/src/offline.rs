//! Offline (post-hoc) race analysis over recorded traces.
//!
//! Step (1) of the paper's toolflow normally runs the detector *live*,
//! alongside the application. This module re-runs the same FastTrack
//! analysis over the **recorded** order instead — reconstructed
//! symbolically from a [`TraceBundle`]'s validation columns, per-domain
//! clocks, and cross-domain edges, with **no threads spawned and no user
//! code executed**:
//!
//! * [`offline_report`] replays the bundle's merged access order through
//!   [`FastTrack`], yielding the same kind of [`RaceReport`] a live
//!   [`Detector`](crate::Detector) produces. The report can feed
//!   [`DomainPlanner`](crate::DomainPlanner) directly — a domain plan
//!   without a live probe run.
//! * [`check_plan_soundness`] then proves (or refutes) the property the
//!   PR 4 proptest can only witness dynamically: every pair of *racing*
//!   accesses recorded in **different** gate domains must be ordered by
//!   the cross-domain edge graph. A racing pair split across domains with
//!   no connecting edge is exactly the blind-partition soundness hole —
//!   replay would not reproduce their relative order.
//!
//! The soundness check works at access granularity: within one domain the
//! gate totally orders all accesses, so only cross-domain pairs need an
//! edge-derived happens-before proof. Per-access vector clocks over
//! domains are computed in one sweep of the merged order (edge anchors
//! join the waited domain's prefix clock), and per racing address the
//! standard discipline — writes totally ordered, every read ordered
//! against its neighbouring writes — is verified pair by pair.
//!
//! Traces record sites, not memory addresses, so by default two accesses
//! alias iff they share a site hash; [`offline_report_with`] and
//! [`check_plan_soundness_with`] accept a `SiteId → addr` map for callers
//! (like tests with known layouts) that can refine this.

use crate::fasttrack::{Access, FastTrack};
use crate::report::RaceReport;
use reomp_core::site::AccessKind;
use reomp_core::verify::{Diagnostic, Severity, Tier, MAX_DIAGS_PER_CHECK};
use reomp_core::{SiteId, TraceBundle};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Why a bundle could not be analysed offline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OfflineError {
    /// The bundle failed structural validation.
    Corrupt(String),
    /// The bundle has no per-access site/kind validation columns (a trace
    /// written without them), so the access sequence cannot be
    /// reconstructed.
    MissingValidation,
    /// The cross-domain edges contain a wait cycle; no merged order
    /// exists.
    CyclicEdges,
}

impl fmt::Display for OfflineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OfflineError::Corrupt(msg) => write!(f, "corrupt bundle: {msg}"),
            OfflineError::MissingValidation => {
                f.write_str("bundle has no site/kind validation columns")
            }
            OfflineError::CyclicEdges => {
                f.write_str("cross-domain edges are cyclic; no merged order exists")
            }
        }
    }
}

impl std::error::Error for OfflineError {}

/// One reconstructed access: where it was recorded, what it did, and
/// what it knew.
#[derive(Debug, Clone)]
struct TraceAccess {
    /// Gate domain the access was recorded in.
    dom: u32,
    /// Thread that performed it.
    tid: u32,
    site: SiteId,
    kind: AccessKind,
    /// `vc[d]` = number of domain-`d` accesses known complete when the
    /// access ran (clock-base aware). Its own domain's component counts
    /// itself: the access's 1-based absolute position in that domain.
    vc: Vec<u64>,
}

impl TraceAccess {
    /// Whether `self` happens-before (or equals) `y` under the per-domain
    /// total orders plus the cross-domain edges.
    fn ordered_before(&self, y: &TraceAccess) -> bool {
        let d = self.dom as usize;
        y.vc[d] >= self.vc[d]
    }
}

/// Reconstruct the merged order with sites, kinds, and domain vector
/// clocks. Fails (never panics) on corrupt, validation-less, or cyclic
/// input.
fn merged_view(bundle: &TraceBundle) -> Result<Vec<TraceAccess>, OfflineError> {
    bundle
        .validate()
        .map_err(|e| OfflineError::Corrupt(e.to_string()))?;
    if !bundle.has_validation() {
        return Err(OfflineError::MissingValidation);
    }
    let order = bundle.linearize();
    if !order.consistent {
        return Err(OfflineError::CyclicEdges);
    }
    let d = bundle.domains as usize;
    let index = bundle.edge_index();
    let is_st = bundle.is_st();

    let mut cur: Vec<Vec<u64>> = (0..d)
        .map(|dom| {
            let mut vc = vec![0u64; d];
            // The evicted prefix of a windowed bundle counts as completed
            // history of the domain itself.
            vc[dom] = bundle.clock_base(dom as u32);
            vc
        })
        .collect();
    // Per domain: merged position of its 1st, 2nd, … retained access.
    let mut hist: Vec<Vec<usize>> = vec![Vec::new(); d];
    let mut accesses: Vec<TraceAccess> = Vec::with_capacity(order.accesses.len());

    for a in &order.accesses {
        let dx = a.domain as usize;
        // Recordings write kinds with sites (checked above), and
        // `validate` refuses a kind byte that decodes to none, so a
        // missing kind is a kind column left out.
        let (Some(site), Some(kind)) = (a.site, a.kind) else {
            let at = format!("access {} of domain {}", a.seq, a.domain);
            return Err(OfflineError::Corrupt(format!("bad kind code at {at}")));
        };

        // Join the edge waits: the anchor happens-after the waited
        // domain's c-th access — and everything that access knew.
        let key = (a.domain, if is_st { 0 } else { a.thread }, a.seq);
        if let Some(waits) = index.get(&key) {
            for &(j, c) in waits {
                let jx = j as usize;
                let base = bundle.clock_base(j);
                if c > base {
                    if let Some(&h) = hist[jx].get((c - base - 1) as usize) {
                        for (slot, &v) in cur[dx].iter_mut().zip(&accesses[h].vc) {
                            *slot = (*slot).max(v);
                        }
                    }
                }
                cur[dx][jx] = cur[dx][jx].max(c);
            }
        }
        // Joins only ever learn of this domain's earlier accesses.
        cur[dx][dx] += 1;

        hist[dx].push(accesses.len());
        accesses.push(TraceAccess {
            dom: a.domain,
            tid: a.thread,
            site,
            kind,
            vc: cur[dx].clone(),
        });
    }
    Ok(accesses)
}

/// Run FastTrack over the recorded order, treating each site hash as its
/// own memory address. Equivalent to [`offline_report_with`] with
/// `|site| site.raw()`.
pub fn offline_report(bundle: &TraceBundle) -> Result<RaceReport, OfflineError> {
    offline_report_with(bundle, |site| site.raw())
}

/// Run FastTrack over the recorded order with a caller-supplied
/// `SiteId → address` aliasing map (traces record sites, not addresses).
///
/// Event mapping mirrors the live detector's view of a gated run:
/// * [`AccessKind::Load`] → a read of `addr_of(site)`,
/// * [`AccessKind::Store`] → a write of `addr_of(site)`,
/// * every other kind (criticals, atomics, reductions, ordered, MPI ops)
///   → an acquire+release of a lock keyed by the site — they are mutual
///   exclusion, not data.
///
/// All threads are forked from the main thread before the sweep, exactly
/// as the `ompr` runtime forks its workers.
pub fn offline_report_with(
    bundle: &TraceBundle,
    addr_of: impl Fn(SiteId) -> u64,
) -> Result<RaceReport, OfflineError> {
    let accesses = merged_view(bundle)?;
    let mut ft = FastTrack::new(bundle.nthreads);
    for tid in 0..bundle.nthreads {
        ft.fork(ompr::events::MAIN_TID, tid);
    }
    for a in &accesses {
        match a.kind {
            AccessKind::Load => ft.access(a.tid, addr_of(a.site), a.site, Access::Read),
            AccessKind::Store => ft.access(a.tid, addr_of(a.site), a.site, Access::Write),
            _ => {
                ft.acquire(a.tid, a.site.raw());
                ft.release(a.tid, a.site.raw());
            }
        }
    }
    Ok(RaceReport {
        races: ft.take_races(),
        events_analysed: accesses.len() as u64,
    })
}

/// One plan-soundness violation: a racing access pair recorded in
/// different gate domains with no cross-domain edge path ordering them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanViolation {
    /// The aliased address the sites race on.
    pub addr: u64,
    /// Site of the earlier (merged-order) access.
    pub first_site: SiteId,
    /// Domain the earlier access was recorded in.
    pub first_domain: u32,
    /// Site of the later access.
    pub second_site: SiteId,
    /// Domain the later access was recorded in.
    pub second_domain: u32,
}

impl fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "racing sites {:#x} (domain {}) and {:#x} (domain {}) on address {:#x} \
             are split across domains with no ordering edge — replay cannot \
             reproduce their relative order",
            self.first_site.raw(),
            self.first_domain,
            self.second_site.raw(),
            self.second_domain,
            self.addr
        )
    }
}

/// Outcome of the static plan-soundness analysis.
#[derive(Debug, Clone, Default)]
pub struct PlanSoundness {
    /// Distinct violating site pairs (deduplicated; one entry per pair).
    pub violations: Vec<PlanViolation>,
    /// Number of racing addresses whose access orders were swept.
    pub checked_addrs: usize,
    /// Number of cross-domain access pairs proven ordered by edges.
    pub proven_pairs: u64,
}

impl PlanSoundness {
    /// Whether every racing pair is co-located or edge-ordered.
    #[must_use]
    pub fn is_sound(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Statically check that the bundle's domain partition is *sound* for the
/// races in `report`: every pair of racing accesses is either recorded in
/// the same gate domain (totally ordered by its gate) or connected by
/// cross-domain edges. Uses `site.raw()` as the aliasing map; see
/// [`check_plan_soundness_with`].
pub fn check_plan_soundness(
    bundle: &TraceBundle,
    report: &RaceReport,
) -> Result<PlanSoundness, OfflineError> {
    check_plan_soundness_with(bundle, report, |site| site.raw())
}

/// [`check_plan_soundness`] with a caller-supplied aliasing map (must be
/// the same map the report was produced with).
pub fn check_plan_soundness_with(
    bundle: &TraceBundle,
    report: &RaceReport,
    addr_of: impl Fn(SiteId) -> u64,
) -> Result<PlanSoundness, OfflineError> {
    if bundle.domains <= 1 {
        // One domain totally orders everything; trivially sound.
        bundle
            .validate()
            .map_err(|e| OfflineError::Corrupt(e.to_string()))?;
        return Ok(PlanSoundness::default());
    }
    let accesses = merged_view(bundle)?;
    let racy_addrs = report.racy_addrs();
    if racy_addrs.is_empty() {
        return Ok(PlanSoundness::default());
    }

    // Group this trace's accesses by aliased address, merged order kept.
    let mut by_addr: HashMap<u64, Vec<&TraceAccess>> = HashMap::new();
    for a in &accesses {
        let addr = addr_of(a.site);
        if racy_addrs.contains(&addr) {
            by_addr.entry(addr).or_default().push(a);
        }
    }

    let mut out = PlanSoundness::default();
    let mut seen: HashSet<(u64, u64)> = HashSet::new();
    let mut check = |x: &TraceAccess, y: &TraceAccess, addr: u64, out: &mut PlanSoundness| {
        if x.dom == y.dom {
            return; // the domain gate totally orders them
        }
        if x.ordered_before(y) {
            out.proven_pairs += 1;
            return;
        }
        let pair = (
            x.site.raw().min(y.site.raw()),
            x.site.raw().max(y.site.raw()),
        );
        if seen.insert(pair) {
            out.violations.push(PlanViolation {
                addr,
                first_site: x.site,
                first_domain: x.dom,
                second_site: y.site,
                second_domain: y.dom,
            });
        }
    };

    for (&addr, accesses) in &by_addr {
        out.checked_addrs += 1;
        // Replay preserves per-address order iff the writes are totally
        // ordered and every read is ordered against its neighbouring
        // writes; checking adjacent pairs in merged order covers all of
        // it transitively in O(n).
        let mut prev_write: Option<&TraceAccess> = None;
        let mut pending_reads: Vec<&TraceAccess> = Vec::new();
        for a in accesses {
            if a.kind == AccessKind::Load {
                if let Some(w) = prev_write {
                    check(w, a, addr, &mut out);
                }
                pending_reads.push(a);
            } else {
                // Anything that mutates or excludes orders like a write.
                if let Some(w) = prev_write {
                    check(w, a, addr, &mut out);
                }
                for r in pending_reads.drain(..) {
                    check(r, a, addr, &mut out);
                }
                prev_write = Some(a);
            }
        }
    }
    out.violations
        .sort_by_key(|v| (v.addr, v.first_site.raw(), v.second_site.raw()));
    Ok(out)
}

/// Fold a plan-soundness run into verifier [`Diagnostic`]s (Plan tier),
/// ready for [`VerifyReport::absorb`](reomp_core::VerifyReport::absorb).
/// Analysis failures surface as a single diagnostic rather than an `Err`,
/// so the CLI path stays infallible; violation diagnostics are capped at
/// [`MAX_DIAGS_PER_CHECK`].
#[must_use]
pub fn plan_soundness_diagnostics(bundle: &TraceBundle, report: &RaceReport) -> Vec<Diagnostic> {
    let sound = match check_plan_soundness(bundle, report) {
        Ok(s) => s,
        Err(e) => {
            return vec![Diagnostic {
                tier: Tier::Plan,
                severity: Severity::Error,
                location: "bundle".into(),
                message: format!("plan soundness not analysable: {e}"),
            }]
        }
    };
    let mut out: Vec<Diagnostic> = sound
        .violations
        .iter()
        .take(MAX_DIAGS_PER_CHECK)
        .map(|v| Diagnostic {
            tier: Tier::Plan,
            severity: Severity::Error,
            location: format!("domains {} × {}", v.first_domain, v.second_domain),
            message: v.to_string(),
        })
        .collect();
    if sound.violations.len() > MAX_DIAGS_PER_CHECK {
        out.push(Diagnostic {
            tier: Tier::Plan,
            severity: Severity::Error,
            location: "bundle".into(),
            message: format!(
                "{} further racing site pairs split across domains",
                sound.violations.len() - MAX_DIAGS_PER_CHECK
            ),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use reomp_core::trace::{CrossDomainEdge, StTrace, ThreadTrace};
    use reomp_core::{Scheme, TraceBundle};

    const LOAD: u8 = AccessKind::Load as u8;
    const STORE: u8 = AccessKind::Store as u8;

    /// One domain, two threads, both storing to site 7 with no sync:
    /// a write-write race the offline sweep must find.
    fn racy_bundle() -> TraceBundle {
        TraceBundle {
            plan: None,
            edges: vec![],
            checkpoint: None,
            scheme: Scheme::Dc,
            nthreads: 2,
            domains: 1,
            threads: vec![
                ThreadTrace {
                    values: vec![0, 2],
                    sites: Some(vec![7, 7]),
                    kinds: Some(vec![LOAD, STORE]),
                },
                ThreadTrace {
                    values: vec![1, 3],
                    sites: Some(vec![7, 7]),
                    kinds: Some(vec![LOAD, STORE]),
                },
            ],
            st: vec![],
        }
    }

    /// Two domains, one thread each… the blind-partition shape: sites 2 and
    /// 3 alias the same address but land in different domains with no
    /// edges.
    fn split_bundle(edges: Vec<CrossDomainEdge>) -> TraceBundle {
        TraceBundle {
            plan: None,
            edges,
            checkpoint: None,
            scheme: Scheme::Dc,
            nthreads: 2,
            domains: 2,
            threads: vec![
                // domain 0: thread 0 stores site 2 twice
                ThreadTrace {
                    values: vec![0, 1],
                    sites: Some(vec![2, 2]),
                    kinds: Some(vec![STORE, STORE]),
                },
                ThreadTrace {
                    values: vec![],
                    sites: Some(vec![]),
                    kinds: Some(vec![]),
                },
                // domain 1: thread 1 stores site 3 twice
                ThreadTrace {
                    values: vec![],
                    sites: Some(vec![]),
                    kinds: Some(vec![]),
                },
                ThreadTrace {
                    values: vec![0, 1],
                    sites: Some(vec![3, 3]),
                    kinds: Some(vec![STORE, STORE]),
                },
            ],
            st: vec![],
        }
    }

    /// Sites 2 and 3 both map to address 40 (the aliasing the live
    /// proptest builds with one RacyCell behind two site labels).
    fn alias(site: SiteId) -> u64 {
        match site.raw() {
            2 | 3 => 40,
            other => other,
        }
    }

    #[test]
    fn offline_finds_the_recorded_race() {
        let report = offline_report(&racy_bundle()).unwrap();
        assert!(!report.races.is_empty());
        assert!(report.racy_sites().contains(&SiteId(7)));
        assert_eq!(report.events_analysed, 4);
    }

    #[test]
    fn missing_validation_is_reported_not_panicked() {
        let mut b = racy_bundle();
        for t in &mut b.threads {
            t.sites = None;
            t.kinds = None;
        }
        assert_eq!(
            offline_report(&b).unwrap_err(),
            OfflineError::MissingValidation
        );
    }

    #[test]
    fn corrupt_bundle_is_reported_not_panicked() {
        let mut b = racy_bundle();
        b.threads.pop();
        assert!(matches!(
            offline_report(&b).unwrap_err(),
            OfflineError::Corrupt(_)
        ));
        // An ST kind byte that decodes to no kind fails the structural
        // tier, as it does in a thread stream.
        let st = TraceBundle {
            plan: None,
            edges: vec![],
            checkpoint: None,
            scheme: Scheme::St,
            nthreads: 1,
            domains: 1,
            threads: vec![ThreadTrace::default()],
            st: vec![StTrace {
                tids: vec![0],
                sites: Some(vec![7]),
                kinds: Some(vec![99]),
            }],
        };
        assert!(matches!(
            offline_report(&st).unwrap_err(),
            OfflineError::Corrupt(msg) if msg.contains("bad kind code")
        ));
    }

    #[test]
    fn split_racing_sites_without_edges_are_unsound() {
        let b = split_bundle(vec![]);
        let report = offline_report_with(&b, alias).unwrap();
        assert!(
            report.racy_sites().contains(&SiteId(2)) && report.racy_sites().contains(&SiteId(3)),
            "{report:?}"
        );
        let sound = check_plan_soundness_with(&b, &report, alias).unwrap();
        assert!(!sound.is_sound());
        let v = sound.violations[0];
        assert_eq!(v.addr, 40);
        assert_ne!(v.first_domain, v.second_domain);
        let diags = {
            // The diagnostics path uses the raw-site aliasing, under which
            // sites 2 and 3 do not alias — exercise it on the raw report.
            let raw = offline_report(&b).unwrap();
            plan_soundness_diagnostics(&b, &raw)
        };
        // Sites 2 and 3 don't race under raw aliasing (different addrs).
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn edges_restore_soundness() {
        // Serialize the two domains: each domain-1 store waits for both
        // domain-0 stores… wait counts are absolute completed counts.
        let edges = vec![CrossDomainEdge {
            domain: 1,
            thread: 1,
            seq: 0,
            waits: vec![(0, 2)],
        }];
        let b = split_bundle(edges);
        let report = offline_report_with(&b, alias).unwrap();
        let sound = check_plan_soundness_with(&b, &report, alias).unwrap();
        assert!(sound.is_sound(), "{:?}", sound.violations);
        assert!(sound.proven_pairs > 0);
    }

    #[test]
    fn single_domain_is_trivially_sound() {
        let b = racy_bundle();
        let report = offline_report(&b).unwrap();
        let sound = check_plan_soundness(&b, &report).unwrap();
        assert!(sound.is_sound());
    }
}
