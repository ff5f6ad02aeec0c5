//! `TraceBundle::linearize` over real recordings: generated programs of
//! loads, stores, critical sections and barriers (`sync_point`) are
//! recorded under every scheme with D ∈ {2, 4} gate domains, plus one
//! flight-recorder window whose clocks start above 0. In each, the
//! reconstructed order must hold every record exactly once, keep each
//! domain's chain (ST stream order, DC clocks, DE epochs), and place every
//! cross-domain edge's anchor after the foreign accesses it waits on. A
//! DE epoch whose first member (by thread) is an anchor still merges: its
//! other members may go first, as in replay, so the verifier accepts
//! every such recording.

use proptest::prelude::*;
use reomp::core::trace::Linearization;
use reomp::{
    AccessKind, DirStore, DomainPlan, DumpTrigger, Scheme, Session, SessionConfig, SiteId,
    TraceBundle, TraceStore, Verifier,
};
use std::collections::HashSet;
use std::sync::Arc;

const NTHREADS: u32 = 3;

/// One generated step: `(thread, site, what)`, where `what` is 0 load,
/// 1 store, 2 critical section, 3 barrier departure (`sync_point`).
type Op = (u32, u64, u8);

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u32..NTHREADS, 1u64..9, 0u8..4)
}

/// Sites 1..=9 route to `site % domains`.
fn plan(domains: u32) -> DomainPlan {
    DomainPlan::with_assignments(
        domains,
        (1..=9).map(|s| (SiteId(s), (s % u64::from(domains)) as u32)),
    )
}

/// Run `ops` from one OS thread, so the recorded order is a function of
/// the program alone. Every thread ends on a store in domain 0, a barrier
/// and a critical section in domain 1, so a multi-domain recording always
/// stamps edges.
fn drive(session: &Arc<Session>, ops: &[Op]) {
    let ctxs: Vec<_> = (0..NTHREADS).map(|t| session.register_thread(t)).collect();
    let ending = (0..NTHREADS).flat_map(|t| [(t, 8, 1), (t, 1, 3), (t, 9, 2)]);
    for (tid, site, what) in ops.iter().copied().chain(ending) {
        let ctx = &ctxs[tid as usize];
        let kind = match what {
            0 => AccessKind::Load,
            1 => AccessKind::Store,
            2 => AccessKind::Critical,
            _ => {
                ctx.sync_point();
                continue;
            }
        };
        ctx.gate(SiteId(site), kind, || ());
    }
}

/// Check every property `linearize` promises of a genuine recording.
fn check(b: &TraceBundle, tag: &str) {
    b.validate().unwrap_or_else(|e| panic!("{tag}: {e}"));
    let Linearization {
        accesses,
        consistent,
    } = b.linearize();
    assert!(consistent, "{tag}: a recorded bundle's edges are acyclic");

    // Every record exactly once, and each access is the record it names.
    let st = b.is_st();
    let mut seen = HashSet::new();
    for a in &accesses {
        let stream = if st { 0 } else { a.thread };
        assert!(seen.insert((a.domain, stream, a.seq)), "{tag}: {a:?} twice");
        let i = a.seq as usize;
        let named = if st {
            let s = &b.st[a.domain as usize];
            (a.seq, s.tids[i], s.site_at(i), s.kind_at(i))
        } else {
            let t = b.thread(a.domain, a.thread);
            (t.values[i], a.thread, t.site_at(i), t.kind_at(i))
        };
        assert_eq!((a.value, a.thread, a.site, a.kind), named, "{tag}");
        assert!(a.site.is_some() && a.kind.is_some(), "{tag}: {a:?}");
    }
    assert_eq!(accesses.len() as u64, b.total_records(), "{tag}");

    // Each domain's chain holds, and each stream keeps program order.
    for dom in 0..b.domains {
        let chain: Vec<_> = accesses.iter().filter(|a| a.domain == dom).collect();
        let base = b.clock_base(dom);
        let values: Vec<u64> = chain.iter().map(|a| a.value).collect();
        match b.scheme {
            Scheme::St => assert!(values.iter().copied().eq(0..chain.len() as u64), "{tag}"),
            Scheme::Dc => assert!(
                values.iter().copied().eq(base..base + chain.len() as u64),
                "{tag}: d{dom} clocks {values:?}"
            ),
            Scheme::De => assert!(
                values.windows(2).all(|w| w[0] <= w[1]) && values.iter().all(|&v| v >= base),
                "{tag}: d{dom} epochs {values:?}"
            ),
        }
        for tid in 0..b.nthreads {
            let seqs: Vec<u64> = chain
                .iter()
                .filter(|a| !st && a.thread == tid)
                .map(|a| a.seq)
                .collect();
            assert!(seqs.iter().copied().eq(0..seqs.len() as u64), "{tag}");
        }
    }

    // Every edge anchor follows the foreign accesses it waits on.
    for e in &b.edges {
        let at = accesses
            .iter()
            .position(|a| a.domain == e.domain && a.seq == e.seq && (st || a.thread == e.thread))
            .unwrap_or_else(|| panic!("{tag}: anchor of {e:?} missing"));
        for &(j, count) in &e.waits {
            let before = accesses[..at].iter().filter(|a| a.domain == j).count() as u64;
            assert!(
                b.clock_base(j) + before >= count,
                "{tag}: {e:?} placed after only {before} accesses of domain {j}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    #[test]
    fn recorded_bundles_linearize_into_their_partial_order(
        ops in proptest::collection::vec(op_strategy(), 0..60),
    ) {
        for scheme in Scheme::ALL {
            for domains in [2u32, 4] {
                let cfg = SessionConfig {
                    plan: Some(plan(domains)),
                    ..SessionConfig::default()
                };
                let session = Session::record_with(scheme, NTHREADS, cfg);
                drive(&session, &ops);
                let bundle = session.finish().unwrap().bundle.unwrap();
                let tag = format!("{scheme}/D={domains}");
                prop_assert!(!bundle.edges.is_empty(), "{}: no edges recorded", tag);
                check(&bundle, &tag);
                // The verifier's acyclicity check is the same merge.
                let report = Verifier::new().verify(&bundle);
                prop_assert!(report.is_clean(), "{}: {}", tag, report);
            }
        }
    }
}

/// A flight-recorder window: its domains start at a nonzero clock base,
/// which the edge merge must count as already completed.
#[test]
fn windowed_dc_bundle_linearizes_from_its_clock_base() {
    let dir = std::env::temp_dir().join(format!("reomp-linearize-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = SessionConfig {
        plan: Some(plan(4)),
        flight: Some(2),
        flush_records: 4,
        ..SessionConfig::default()
    };
    let session = Session::record_flight(Scheme::Dc, NTHREADS, cfg, DirStore::new(&dir)).unwrap();
    let ops: Vec<Op> = (0..240u64)
        .map(|i| {
            (
                (i % 3) as u32,
                i % 7 + 1,
                [0, 1, 3, 2, 0, 1][(i % 6) as usize],
            )
        })
        .collect();
    drive(&session, &ops);
    session.dump(DumpTrigger::Manual).unwrap();
    session.finish().unwrap();
    let (window, _) = DirStore::new(&dir).load().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        (0..4).all(|dom| window.clock_base(dom) > 0),
        "nothing evicted"
    );
    assert!(!window.edges.is_empty(), "no edges survived the window");
    check(&window, "flight DC/D=4");
}
