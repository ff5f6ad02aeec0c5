//! Static verification of [`MpiTrace`]s — the rmpi counterpart of
//! [`reomp_core::verify`].
//!
//! The same tier structure applies:
//!
//! * **Structural** — [`MpiTrace::validate`]'s shape checks: stream-count
//!   arity against `domains`, waitany/recv pairing, plan-domain
//!   agreement, checkpoint arity.
//! * **Ordering** — per-`(rank × domain)` stream well-formedness: every
//!   matched source must name an existing rank (a receive from a
//!   nonexistent rank can never be replayed), and a flight-recorder
//!   window must actually bound its streams (no stream may retain more
//!   events than the checkpointed window).
//! * **Plan** — hybrid thread-plan agreement ([`verify_hybrid`]): two
//!   receive sites the MPI partition co-locates in one stream are
//!   replay-ordered by the *thread* gate in hybrid runs, so a thread
//!   plan that splits them breaks the hybrid soundness contract of
//!   [`MpiSession::matching_thread_plan`](crate::session::MpiSession::matching_thread_plan).
//!
//! A clean trace earns the same [`Certificate`] type the thread verifier
//! mints, digesting every stream, the plan, and the checkpoint with the
//! identical word [`Digest`] — `reomp-inspect --mpi --verify` prints it,
//! CI diffs it and `tests/golden_corpus.rs` pins it.

use crate::session::MpiTrace;
use reomp_core::plan::DomainPlan;
use reomp_core::verify::{
    Certificate, Diagnostic, Digest, Severity, Tier, VerifyReport, MAX_DIAGS_PER_CHECK,
};

/// The static MPI-trace verifier. Stateless, like
/// [`Verifier`](reomp_core::Verifier).
#[derive(Debug, Default)]
pub struct MpiVerifier;

impl MpiVerifier {
    /// A verifier with default settings.
    #[must_use]
    pub fn new() -> MpiVerifier {
        MpiVerifier
    }

    /// Run every tier over `trace` and produce the report. Never panics;
    /// structural corruption short-circuits the deeper tiers.
    #[must_use]
    pub fn verify(&self, trace: &MpiTrace) -> VerifyReport {
        let mut report = VerifyReport {
            diagnostics: Vec::new(),
            certificate: None,
            checks: 0,
        };

        report.checks += 1;
        if let Err(e) = trace.validate() {
            report.diagnostics.push(Diagnostic {
                tier: Tier::Structural,
                severity: Severity::Error,
                location: "trace".into(),
                message: e.to_string(),
            });
            return report;
        }

        ordering(trace, &mut report);

        // The trace's own matching thread plan must satisfy the hybrid
        // contract (a stamped plan that disagrees with itself means the
        // plan section was tampered with).
        report.checks += 1;
        report.absorb(verify_hybrid(trace, &trace.matching_thread_plan()));

        if report.is_clean() {
            report.certificate = Some(certificate(trace));
        }
        report
    }
}

/// The Ordering tier: would replay actually drive these streams?
fn ordering(trace: &MpiTrace, out: &mut VerifyReport) {
    let nranks = trace.nranks();
    let domains = trace.domains.max(1);

    // Matched sources must name existing ranks.
    out.checks += 1;
    let mut n = 0usize;
    for (s, stream) in trace.recv_streams.iter().enumerate() {
        let (rank, dom) = (s as u32 / domains, s as u32 % domains);
        if let Some(pos) = stream.iter().position(|e| e.src >= nranks) {
            out.push_capped(
                &mut n,
                Diagnostic {
                    tier: Tier::Ordering,
                    severity: Severity::Error,
                    location: format!("rank {rank} domain {dom} event {pos}"),
                    message: format!(
                        "matched source {} is not a rank of this {nranks}-rank world — \
                         replay would wait forever for its message",
                        stream[pos].src
                    ),
                },
            );
        }
    }

    // A flight window must bound what it claims to bound.
    out.checks += 1;
    if let Some(cp) = &trace.checkpoint {
        let mut n = 0usize;
        let window = u64::from(cp.window);
        for (s, (recv, wa)) in trace
            .recv_streams
            .iter()
            .zip(&trace.waitany_streams)
            .enumerate()
        {
            let (rank, dom) = (s as u32 / domains, s as u32 % domains);
            for (what, len) in [("receive", recv.len() as u64), ("waitany", wa.len() as u64)] {
                if len > window {
                    out.push_capped(
                        &mut n,
                        Diagnostic {
                            tier: Tier::Ordering,
                            severity: Severity::Error,
                            location: format!("rank {rank} domain {dom}"),
                            message: format!(
                                "{what} stream retains {len} events but the flight \
                                 window is {window}"
                            ),
                        },
                    );
                }
            }
        }
    }
}

/// Check the hybrid soundness contract between this MPI trace's receive
/// partition and a thread-session [`DomainPlan`]: every pair of receive
/// sites the MPI plan pins to one MPI domain (hence one replay stream)
/// must share a thread-gate domain, because the per-stream receive order
/// is only reproducible when the thread gate serializes those receives.
/// Returns one Plan-tier diagnostic per violating site pair (capped).
#[must_use]
pub fn verify_hybrid(trace: &MpiTrace, thread_plan: &DomainPlan) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let Some(plan) = &trace.plan else {
        // Hashed-fallback partitions carry no pinned sites to cross-check.
        return out;
    };
    let sites = plan.sorted_assignments();
    for (i, &(a, dom_a)) in sites.iter().enumerate() {
        for &(b, dom_b) in &sites[i + 1..] {
            if dom_a != dom_b {
                continue;
            }
            let ta = thread_plan.domain_of(reomp_core::SiteId(a));
            let tb = thread_plan.domain_of(reomp_core::SiteId(b));
            if ta != tb {
                if out.len() == MAX_DIAGS_PER_CHECK {
                    out.push(Diagnostic {
                        tier: Tier::Plan,
                        severity: Severity::Error,
                        location: "plan".into(),
                        message: "further hybrid plan disagreements suppressed".into(),
                    });
                    return out;
                }
                out.push(Diagnostic {
                    tier: Tier::Plan,
                    severity: Severity::Error,
                    location: format!("mpi domain {dom_a}"),
                    message: format!(
                        "receive sites {a:#x} and {b:#x} share an MPI stream but the \
                         thread plan splits them across domains {ta} and {tb} — their \
                         per-stream receive order is not thread-gate-ordered"
                    ),
                });
            }
        }
    }
    out
}

/// Deterministic digest over the trace: header, every stream, the plan's
/// sorted assignments, and the checkpoint.
fn certificate(trace: &MpiTrace) -> Certificate {
    let mut h = Digest::new();
    h.u64(u64::from(trace.domains));
    h.u64(trace.recv_streams.len() as u64);
    for stream in &trace.recv_streams {
        h.u64(stream.len() as u64);
        h.column(
            stream
                .iter()
                .flat_map(|e| [u64::from(e.src), u64::from(e.tag)]),
        );
    }
    for stream in &trace.waitany_streams {
        h.u64(stream.len() as u64);
        h.column(stream.iter().map(|&idx| u64::from(idx)));
    }
    match &trace.plan {
        Some(plan) => {
            h.u64(1);
            h.u64(u64::from(plan.domains()));
            for (site, dom) in plan.sorted_assignments() {
                h.u64(site);
                h.u64(u64::from(dom));
            }
        }
        None => h.u64(0),
    }
    match &trace.checkpoint {
        Some(cp) => {
            h.u64(1);
            h.u64(u64::from(cp.trigger.code()));
            h.u64(u64::from(cp.window));
            for &b in cp.recv_bases.iter().chain(&cp.waitany_bases) {
                h.u64(b);
            }
        }
        None => h.u64(0),
    }
    Certificate {
        digest: h.finish(),
        detail: format!(
            "mpi ranks={} domains={} events={} waitany={}{}",
            trace.nranks(),
            trace.domains,
            trace.total_events(),
            trace.total_waitany(),
            if trace.checkpoint.is_some() {
                " windowed"
            } else {
                ""
            }
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{MpiCheckpoint, RecvEvent};
    use reomp_core::trace::DumpTrigger;
    use reomp_core::SiteId;

    fn trace_2x2() -> MpiTrace {
        MpiTrace {
            domains: 2,
            plan: None,
            recv_streams: vec![
                vec![RecvEvent { src: 1, tag: 0 }],
                vec![RecvEvent { src: 1, tag: 1 }],
                vec![RecvEvent { src: 0, tag: 0 }],
                vec![],
            ],
            waitany_streams: vec![vec![0], vec![], vec![], vec![]],
            checkpoint: None,
        }
    }

    #[test]
    fn clean_trace_gets_a_stable_certificate() {
        let v = MpiVerifier::new();
        let a = v.verify(&trace_2x2());
        let b = v.verify(&trace_2x2());
        assert!(a.is_clean(), "{a}");
        assert_eq!(a.certificate, b.certificate);
        let mut tweaked = trace_2x2();
        tweaked.recv_streams[0][0].tag = 9;
        assert_ne!(v.verify(&tweaked).certificate, a.certificate);
    }

    #[test]
    fn structural_corruption_is_flagged() {
        let mut t = trace_2x2();
        t.waitany_streams.pop();
        let report = MpiVerifier::new().verify(&t);
        assert_eq!(report.worst_tier(), Some(Tier::Structural), "{report}");
    }

    #[test]
    fn out_of_world_source_is_an_ordering_error() {
        let mut t = trace_2x2();
        t.recv_streams[0][0].src = 7;
        let report = MpiVerifier::new().verify(&t);
        assert_eq!(report.worst_tier(), Some(Tier::Ordering), "{report}");
    }

    #[test]
    fn overfull_flight_window_is_an_ordering_error() {
        let mut t = trace_2x2();
        t.recv_streams[2] = vec![RecvEvent { src: 0, tag: 0 }; 3];
        t.checkpoint = Some(MpiCheckpoint {
            window: 2,
            trigger: DumpTrigger::Manual,
            recv_bases: vec![0; 4],
            waitany_bases: vec![0; 4],
        });
        let report = MpiVerifier::new().verify(&t);
        assert_eq!(report.worst_tier(), Some(Tier::Ordering), "{report}");
    }

    #[test]
    fn hybrid_split_of_colocated_sites_is_a_plan_error() {
        let mut plan = DomainPlan::new(2);
        plan.set(SiteId(10), 0);
        plan.set(SiteId(11), 0); // co-located with site 10
        let mut t = trace_2x2();
        t.plan = Some(plan);
        // The matching thread plan (the plan itself) agrees — clean.
        let report = MpiVerifier::new().verify(&t);
        assert!(report.is_clean(), "{report}");

        // A thread plan splitting the co-located pair violates the
        // contract.
        let mut bad = DomainPlan::new(2);
        bad.set(SiteId(10), 0);
        bad.set(SiteId(11), 1);
        let diags = verify_hybrid(&t, &bad);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].tier, Tier::Plan);
    }
}
