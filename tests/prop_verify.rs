//! Mutation testing of the static trace verifier: random valid bundles
//! are corrupted in class-specific ways — dropped/cyclic edges, permuted
//! clocks, truncated streams/columns, mismatched plan stamps, bad kind
//! bytes, broken checkpoints — and every mutation must be flagged at the
//! expected tier without a panic; the untouched bundle must verify clean
//! with a certificate digest that is stable across runs.
//!
//! Golden tests at the bottom pin the `VerifyReport` text (including the
//! certificate line) for the PR 3 fixture layout (single domain, no
//! plan/edges) and the PR 4 layout (two domains, plan + edges).

use proptest::prelude::*;
use reomp::core::verify::Tier;
use reomp::{
    AccessKind, Checkpoint, CrossDomainEdge, DomainPlan, DumpTrigger, Scheme, SiteId, TraceBundle,
    Verifier,
};

/// One generated access: `(thread, site, kind code)`.
type Op = (u32, u64, u8);

/// Deterministically build a valid bundle from a generated program: each
/// access routes to `site % domains` (or the explicit plan, which pins
/// every used site to that same domain so routing stays consistent) and
/// takes the next clock of its domain — per-thread streams are monotone,
/// per-domain multisets contiguous, exactly what a real DC/DE/ST record
/// run produces.
fn build(scheme: Scheme, nthreads: u32, domains: u32, with_plan: bool, ops: &[Op]) -> TraceBundle {
    use reomp::core::trace::{StTrace, ThreadTrace};
    let route = |site: u64| (site % u64::from(domains)) as u32;
    let mut threads = vec![
        ThreadTrace {
            values: vec![],
            sites: Some(vec![]),
            kinds: Some(vec![]),
        };
        (domains * nthreads) as usize
    ];
    let mut st = vec![StTrace::default(); domains as usize];
    for s in &mut st {
        s.sites = Some(vec![]);
        s.kinds = Some(vec![]);
    }
    let mut clocks = vec![0u64; domains as usize];
    for &(tid, site, kind) in ops {
        let dom = route(site);
        if scheme == Scheme::St {
            let stream = &mut st[dom as usize];
            stream.tids.push(tid % nthreads);
            stream.sites.as_mut().unwrap().push(site);
            stream.kinds.as_mut().unwrap().push(kind);
        } else {
            let t = &mut threads[(dom * nthreads + tid % nthreads) as usize];
            t.values.push(clocks[dom as usize]);
            t.sites.as_mut().unwrap().push(site);
            t.kinds.as_mut().unwrap().push(kind);
        }
        clocks[dom as usize] += 1;
    }
    let plan = if with_plan && domains > 1 {
        let mut p = DomainPlan::new(domains);
        for &(_, site, _) in ops {
            p.set(SiteId(site), route(site));
        }
        Some(p)
    } else {
        None
    };
    TraceBundle {
        scheme,
        nthreads,
        domains,
        threads,
        st: if scheme == Scheme::St { st } else { vec![] },
        plan,
        edges: vec![],
        checkpoint: None,
    }
}

/// Index of the access holding clock `value` in domain `dom`:
/// `(thread, seq)` for DC/DE, `(0, value)` for ST.
fn locate(b: &TraceBundle, dom: u32, value: u64) -> Option<(u32, u64)> {
    if b.is_st() {
        return (value < b.st[dom as usize].len() as u64).then_some((0, value));
    }
    for tid in 0..b.nthreads {
        if let Some(seq) = b.thread(dom, tid).values.iter().position(|&v| v == value) {
            return Some((tid, seq as u64));
        }
    }
    None
}

/// Every mutation class, its applicability, and the tier it must land in.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mutation {
    ZeroThreads,
    DropStream,
    TruncateSiteColumn,
    BadKind,
    PermuteClocks,
    UnreachableEpoch,
    StThreadValues,
    StBadKind,
    CyclicEdges,
    EdgeAnchorOutOfRange,
    EdgeWaitOverrun,
    MismatchedPlanStamp,
    CheckpointArity,
    CheckpointZeroWindow,
    FloorsOnNonDe,
    FloorBelowWindow,
}

const ALL: [Mutation; 16] = [
    Mutation::ZeroThreads,
    Mutation::DropStream,
    Mutation::TruncateSiteColumn,
    Mutation::BadKind,
    Mutation::PermuteClocks,
    Mutation::UnreachableEpoch,
    Mutation::StThreadValues,
    Mutation::StBadKind,
    Mutation::CyclicEdges,
    Mutation::EdgeAnchorOutOfRange,
    Mutation::EdgeWaitOverrun,
    Mutation::MismatchedPlanStamp,
    Mutation::CheckpointArity,
    Mutation::CheckpointZeroWindow,
    Mutation::FloorsOnNonDe,
    Mutation::FloorBelowWindow,
];

impl Mutation {
    fn expected_tier(self) -> Tier {
        match self {
            Mutation::ZeroThreads
            | Mutation::DropStream
            | Mutation::TruncateSiteColumn
            | Mutation::BadKind
            | Mutation::StBadKind
            | Mutation::EdgeAnchorOutOfRange
            | Mutation::EdgeWaitOverrun
            | Mutation::CheckpointArity => Tier::Structural,
            Mutation::PermuteClocks
            | Mutation::UnreachableEpoch
            | Mutation::StThreadValues
            | Mutation::CyclicEdges
            | Mutation::CheckpointZeroWindow
            | Mutation::FloorsOnNonDe
            | Mutation::FloorBelowWindow => Tier::Ordering,
            Mutation::MismatchedPlanStamp => Tier::Plan,
        }
    }

    fn applicable(self, b: &TraceBundle) -> bool {
        let multi = b.domains > 1 && b.domain_records(0) > 0 && b.domain_records(1) > 0;
        match self {
            Mutation::ZeroThreads | Mutation::DropStream | Mutation::CheckpointArity => true,
            Mutation::TruncateSiteColumn => b.total_records() > 0,
            Mutation::BadKind => b.scheme != Scheme::St && b.total_records() > 0,
            Mutation::PermuteClocks => {
                b.scheme == Scheme::Dc
                    && b.threads.iter().any(|t| {
                        // A swap must break monotonicity detectably: any
                        // stream with two values is strictly increasing
                        // by construction, so swapping always breaks it.
                        t.values.len() >= 2
                    })
            }
            Mutation::UnreachableEpoch => b.scheme == Scheme::De && b.total_records() > 0,
            Mutation::StThreadValues => b.scheme == Scheme::St,
            Mutation::StBadKind => b.scheme == Scheme::St && b.total_records() > 0,
            Mutation::CyclicEdges | Mutation::EdgeAnchorOutOfRange | Mutation::EdgeWaitOverrun => {
                multi
            }
            Mutation::MismatchedPlanStamp => b.plan.is_some() && b.total_records() > 0,
            Mutation::CheckpointZeroWindow | Mutation::FloorsOnNonDe => b.scheme != Scheme::De,
            Mutation::FloorBelowWindow => b.scheme == Scheme::De && b.total_records() > 0,
        }
    }

    fn apply(self, b: &mut TraceBundle) {
        match self {
            Mutation::ZeroThreads => b.nthreads = 0,
            Mutation::DropStream => {
                if b.is_st() {
                    b.st.pop();
                } else {
                    b.threads.pop();
                }
            }
            Mutation::TruncateSiteColumn => {
                if b.is_st() {
                    let s = b.st.iter_mut().find(|s| !s.tids.is_empty()).unwrap();
                    s.sites.as_mut().unwrap().pop();
                } else {
                    let t = b.threads.iter_mut().find(|t| !t.values.is_empty()).unwrap();
                    t.sites.as_mut().unwrap().pop();
                }
            }
            Mutation::BadKind => {
                let t = b.threads.iter_mut().find(|t| !t.values.is_empty()).unwrap();
                t.kinds.as_mut().unwrap()[0] = 250;
            }
            Mutation::PermuteClocks => {
                let t = b.threads.iter_mut().find(|t| t.values.len() >= 2).unwrap();
                t.values.swap(0, 1);
            }
            Mutation::UnreachableEpoch => {
                let records: u64 = b.threads.iter().map(|t| t.values.len() as u64).sum();
                let t = b.threads.iter_mut().find(|t| !t.values.is_empty()).unwrap();
                t.values[0] = records + 5;
            }
            Mutation::StThreadValues => {
                // Null the validation columns so the stray clock value is
                // NOT a column-length mismatch (that would be Structural);
                // the baton-purity check alone must catch it.
                b.threads[0].sites = None;
                b.threads[0].kinds = None;
                b.threads[0].values.push(0);
            }
            Mutation::StBadKind => {
                let s = b.st.iter_mut().find(|s| !s.tids.is_empty()).unwrap();
                s.kinds.as_mut().unwrap()[0] = 250;
            }
            Mutation::CyclicEdges => {
                // Each domain's FIRST access demands the other domain run
                // to completion first: structurally valid, unsatisfiable.
                let (t0, s0) = locate(b, 0, 0).unwrap();
                let (t1, s1) = locate(b, 1, 0).unwrap();
                b.edges = vec![
                    CrossDomainEdge {
                        domain: 0,
                        thread: t0,
                        seq: s0,
                        waits: vec![(1, b.domain_records(1))],
                    },
                    CrossDomainEdge {
                        domain: 1,
                        thread: t1,
                        seq: s1,
                        waits: vec![(0, b.domain_records(0))],
                    },
                ];
            }
            Mutation::EdgeAnchorOutOfRange => {
                let (t1, _) = locate(b, 1, 0).unwrap();
                b.edges = vec![CrossDomainEdge {
                    domain: 1,
                    thread: t1,
                    seq: b.domain_records(1) + 3,
                    waits: vec![(0, 1)],
                }];
            }
            Mutation::EdgeWaitOverrun => {
                let (t1, s1) = locate(b, 1, 0).unwrap();
                b.edges = vec![CrossDomainEdge {
                    domain: 1,
                    thread: t1,
                    seq: s1,
                    waits: vec![(0, b.domain_records(0) + 9)],
                }];
            }
            Mutation::MismatchedPlanStamp => {
                // Reroute one recorded site to a different domain than the
                // one its accesses actually sit in.
                let site = if b.is_st() {
                    b.st.iter()
                        .flat_map(|s| s.sites.as_ref().unwrap())
                        .next()
                        .copied()
                        .unwrap()
                } else {
                    b.threads
                        .iter()
                        .flat_map(|t| t.sites.as_ref().unwrap())
                        .next()
                        .copied()
                        .unwrap()
                };
                let plan = b.plan.as_mut().unwrap();
                let wrong = (plan.domain_of(SiteId(site)) + 1) % b.domains;
                plan.set(SiteId(site), wrong);
            }
            Mutation::CheckpointArity => {
                b.checkpoint = Some(Checkpoint {
                    base: vec![0; b.domains as usize + 1],
                    floors: vec![],
                    window: 4,
                    trigger: DumpTrigger::Manual,
                });
            }
            Mutation::CheckpointZeroWindow => {
                b.checkpoint = Some(Checkpoint {
                    base: vec![0; b.domains as usize],
                    floors: vec![],
                    window: 0,
                    trigger: DumpTrigger::Manual,
                });
            }
            Mutation::FloorsOnNonDe => {
                b.checkpoint = Some(Checkpoint {
                    base: vec![0; b.domains as usize],
                    floors: vec![u64::MAX; b.domains as usize],
                    window: 4,
                    trigger: DumpTrigger::Panic,
                });
            }
            Mutation::FloorBelowWindow => {
                // A floor of 0 claims the epoch trackers never advanced,
                // yet the window retains records — impossible provenance.
                b.checkpoint = Some(Checkpoint {
                    base: vec![0; b.domains as usize],
                    floors: vec![0; b.domains as usize],
                    window: 4,
                    trigger: DumpTrigger::Divergence,
                });
            }
        }
    }
}

fn op_strategy(nthreads: u32) -> impl Strategy<Value = Op> {
    (
        0..nthreads,
        1u64..7,
        prop_oneof![Just(0u8), Just(1), Just(3)],
    )
        .prop_map(|(t, s, k)| (t, s, k))
}

fn scheme_strategy() -> impl Strategy<Value = Scheme> {
    prop_oneof![Just(Scheme::St), Just(Scheme::Dc), Just(Scheme::De)]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    /// Every applicable mutation class is reported at its tier, no panic;
    /// the pristine bundle is clean with a run-to-run stable certificate.
    #[test]
    fn every_mutation_class_is_flagged_at_its_tier(
        scheme in scheme_strategy(),
        nthreads in 1u32..4,
        domains in prop_oneof![Just(1u32), Just(2)],
        with_plan in prop_oneof![Just(true), Just(false)],
        pick in 0usize..1_000_000,
        ops in proptest::collection::vec(op_strategy(4), 1..24),
    ) {
        let ops: Vec<Op> = ops.into_iter().map(|(t, s, k)| (t % nthreads, s, k)).collect();
        let pristine = build(scheme, nthreads, domains, with_plan, &ops);
        prop_assert!(pristine.validate().is_ok(), "generator must emit valid bundles");

        let verifier = Verifier::new();
        let clean = verifier.verify(&pristine);
        prop_assert!(clean.is_clean(), "pristine bundle flagged: {clean}");
        let again = verifier.verify(&pristine);
        prop_assert_eq!(&clean.certificate, &again.certificate, "digest must be stable");
        prop_assert!(clean.certificate.is_some());

        let applicable: Vec<Mutation> =
            ALL.into_iter().filter(|m| m.applicable(&pristine)).collect();
        prop_assert!(!applicable.is_empty());
        let mutation = applicable[pick % applicable.len()];

        let mut mutated = pristine.clone();
        mutation.apply(&mut mutated);
        let report = verifier.verify(&mutated); // must not panic
        prop_assert_eq!(
            report.worst_tier(),
            Some(mutation.expected_tier()),
            "{:?} → {}", mutation, report
        );
        prop_assert!(report.certificate.is_none(), "{:?} kept a certificate", mutation);
    }
}

/// A *dropped* edge is invisible to shape checks by design (fewer
/// constraints still replay); it is the **plan-soundness** analysis that
/// catches it — the racing cross-domain pair the edge ordered is now
/// unordered. This is the static analogue of the PR 4 `#[should_panic]`
/// replay divergence.
#[test]
fn dropped_edge_is_caught_by_plan_soundness() {
    use reomp::core::trace::ThreadTrace;
    // Sites 2 and 3 alias one address; domain 0 holds site 2 (thread 0),
    // domain 1 holds site 3 (thread 1). The edge orders d1 after d0.
    let store = AccessKind::Store.code();
    let bundle = TraceBundle {
        scheme: Scheme::Dc,
        nthreads: 2,
        domains: 2,
        threads: vec![
            ThreadTrace {
                values: vec![0, 1],
                sites: Some(vec![2, 2]),
                kinds: Some(vec![store, store]),
            },
            ThreadTrace {
                values: vec![],
                sites: Some(vec![]),
                kinds: Some(vec![]),
            },
            ThreadTrace {
                values: vec![],
                sites: Some(vec![]),
                kinds: Some(vec![]),
            },
            ThreadTrace {
                values: vec![0, 1],
                sites: Some(vec![3, 3]),
                kinds: Some(vec![store, store]),
            },
        ],
        st: vec![],
        plan: None,
        edges: vec![CrossDomainEdge {
            domain: 1,
            thread: 1,
            seq: 0,
            waits: vec![(0, 2)],
        }],
        checkpoint: None,
    };
    let alias = |site: SiteId| if site.raw() <= 3 { 40 } else { site.raw() };

    // With the edge: the racing pair is ordered — sound.
    let report = racedet::offline::offline_report_with(&bundle, alias).unwrap();
    assert!(report.racy_sites().contains(&SiteId(2)));
    let sound = racedet::offline::check_plan_soundness_with(&bundle, &report, alias).unwrap();
    assert!(sound.is_sound(), "{:?}", sound.violations);

    // Drop the edge: same shapes, same clocks — only the soundness
    // analysis can tell the difference.
    let mut dropped = bundle.clone();
    dropped.edges.clear();
    assert!(dropped.validate().is_ok());
    assert!(Verifier::new().verify(&dropped).is_clean());
    let report = racedet::offline::offline_report_with(&dropped, alias).unwrap();
    let sound = racedet::offline::check_plan_soundness_with(&dropped, &report, alias).unwrap();
    assert!(
        !sound.is_sound(),
        "dropped edge must surface as unsoundness"
    );
    assert_eq!(sound.violations[0].addr, 40);
}

/// Pin the `VerifyReport` rendering for the PR 3 fixture layout: one
/// domain, DC, no plan/edges/checkpoint. The digest is part of the pin —
/// it may only change when the certificate's canonical serialization or
/// its digest function changes, which is exactly what this golden test is
/// here to catch. It was last re-pinned when `reomp-cert-v3` ran each
/// column of the word `verify::Digest` through four lanes.
#[test]
fn golden_report_pr3_layout() {
    let bundle = build(Scheme::Dc, 2, 1, false, &[(0, 1, 0), (1, 1, 0), (0, 1, 1)]);
    let report = Verifier::new().verify(&bundle);
    assert_eq!(
        report.to_string(),
        "verify: clean — 7 checks, 0 warning(s)\n\
         certificate: reomp-cert-v3 a36bd4e7d388f33e scheme=dc threads=2 domains=1 \
         records=3 edges=0\n"
    );
}

/// Pin the PR 4 layout: two domains, explicit plan, one cross-domain
/// edge.
#[test]
fn golden_report_pr4_layout() {
    let mut bundle = build(
        Scheme::Dc,
        2,
        2,
        true,
        &[(0, 2, 1), (0, 2, 1), (1, 3, 1), (1, 3, 1)],
    );
    bundle.edges = vec![CrossDomainEdge {
        domain: 1,
        thread: 1,
        seq: 0,
        waits: vec![(0, 2)],
    }];
    let report = Verifier::new().verify(&bundle);
    assert_eq!(
        report.to_string(),
        "verify: clean — 7 checks, 0 warning(s)\n\
         certificate: reomp-cert-v3 35ac77bdd4533302 scheme=dc threads=2 domains=2 \
         records=4 edges=1\n"
    );
}
