//! Integration: the history a divergence report carries, pinned to the
//! byte. Each case records a fixed access sequence from one OS thread,
//! replays it in its recorded order and flips the kind of one late
//! access; the report's `Display` — header and the domain's last
//! `ring_capacity` admitted accesses, newest first — must equal the
//! pinned text. The table spans {ST, DC, DE} × {one domain, two domains,
//! a flight-recorder window} × `ring_capacity` ∈ {0, 3, 64}.

use reomp::{
    AccessKind, DirStore, DomainPlan, DumpTrigger, ReplayError, Scheme, Session, SessionConfig,
    SiteId, TraceBundle, TraceStore,
};
use std::sync::Arc;

/// Accesses each recording drives.
const ACCESSES: usize = 30;
const THREADS: u32 = 3;

/// How a case's bundle is laid out.
#[derive(Clone, Copy, Debug)]
enum Layout {
    /// One gate domain.
    One,
    /// Two gate domains, criticals anchoring cross-domain edges.
    Two,
    /// One domain recorded into a flight window of 2 chunks × 3 records.
    Flight,
}

fn sites() -> [SiteId; 3] {
    [0, 1, 2].map(|i| SiteId::from_label(&format!("divergence_history.rs:site{i}")))
}

/// A fixed sequence driven from one OS thread, so the recorded order is a
/// pure function of the code: runs of same-site loads give DE shared
/// epochs, and criticals give a two-domain plan its edges.
fn drive(session: &Arc<Session>) {
    let sites = sites();
    let ctxs: Vec<_> = (0..THREADS).map(|t| session.register_thread(t)).collect();
    let mut lcg = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..ACCESSES {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let tid = ((lcg >> 33) % u64::from(THREADS)) as usize;
        let site = (lcg >> 40) % 3;
        let kind = match (lcg >> 24) % 6 {
            0 => AccessKind::Critical,
            1 | 2 => AccessKind::Store,
            _ => AccessKind::Load,
        };
        ctxs[tid].gate(sites[site as usize], kind, || {});
    }
}

fn record(scheme: Scheme, layout: Layout) -> TraceBundle {
    let [s0, s1, s2] = sites();
    let plan = match layout {
        Layout::Two => Some(DomainPlan::with_assignments(2, [(s0, 0), (s1, 0), (s2, 1)])),
        Layout::One | Layout::Flight => None,
    };
    let cfg = SessionConfig {
        plan,
        ..SessionConfig::default()
    };
    if let Layout::Flight = layout {
        let dir = std::env::temp_dir().join(format!(
            "reomp-divergence-history-{scheme}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let flight_cfg = SessionConfig {
            flight: Some(2),
            flush_records: 3,
            ..cfg
        };
        let session = Session::record_flight(scheme, THREADS, flight_cfg, DirStore::new(&dir))
            .expect("flight session");
        drive(&session);
        session.dump(DumpTrigger::Manual).expect("dump");
        session.finish().expect("finish");
        let (window, _) = DirStore::new(&dir).load().expect("load window");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(window.checkpoint.is_some(), "{scheme}: a windowed bundle");
        return window;
    }
    let session = Session::record_with(scheme, THREADS, cfg);
    drive(&session);
    session.finish().expect("finish").bundle.expect("bundle")
}

/// Replay `bundle` in its recorded order with `ring_capacity` `cap`,
/// flipping the kind of the second-to-last access; returns the report.
fn diverge(bundle: TraceBundle, cap: usize) -> String {
    let order = bundle.linearize();
    assert!(order.consistent);
    let wrong = order.accesses.len() - 2;
    let cfg = SessionConfig {
        ring_capacity: cap,
        ..SessionConfig::default()
    };
    let replay = Session::replay_with(bundle, cfg).expect("replay session");
    let ctxs: Vec<_> = (0..THREADS).map(|t| replay.register_thread(t)).collect();
    for (i, a) in order.accesses.iter().enumerate() {
        let site = a.site.expect("recorded sites");
        let kind = a.kind.expect("recorded kinds");
        let ctx = &ctxs[a.thread as usize];
        if i < wrong {
            ctx.try_gate(site, kind, || ())
                .expect("recorded order replays");
            continue;
        }
        let flipped = if kind == AccessKind::Load {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        let report = match ctx.try_gate(site, flipped, || ()) {
            Err(ReplayError::Divergence(d)) => d.to_string(),
            other => panic!("expected a divergence, got {other:?}"),
        };
        // The counts are of admitted accesses: the diverging gate is in none.
        drop(ctxs);
        let stats = replay.finish().expect("replay finish").stats;
        assert_eq!(
            (stats.gates, stats.records_read),
            (wrong as u64, wrong as u64)
        );
        return report;
    }
    unreachable!("the sequence diverges before it ends")
}

/// `(scheme, layout, ring_capacity)` → the report's `Display`.
const PINNED: &[(&str, &str)] = &[
    ("st One cap 0", "replay divergence on thread 2 (domain 0) at access #28: recorded load at 0xc9b3b9e72efca098, but program executed store at 0xc9b3b9e72efca098"),
    ("st One cap 3", "replay divergence on thread 2 (domain 0) at access #28: recorded load at 0xc9b3b9e72efca098, but program executed store at 0xc9b3b9e72efca098; last 3 accesses admitted in domain 0 (newest first):\n  #27     thread 1 store at 0xc9b3b9e72efca098\n  #26     thread 2 critical at 0xc9b3bbe72efca3fe\n  #25     thread 1 load at 0xc9b3bce72efca5b1"),
    ("st One cap 64", "replay divergence on thread 2 (domain 0) at access #28: recorded load at 0xc9b3b9e72efca098, but program executed store at 0xc9b3b9e72efca098; last 28 accesses admitted in domain 0 (newest first):\n  #27     thread 1 store at 0xc9b3b9e72efca098\n  #26     thread 2 critical at 0xc9b3bbe72efca3fe\n  #25     thread 1 load at 0xc9b3bce72efca5b1\n  #24     thread 1 load at 0xc9b3bbe72efca3fe\n  #23     thread 1 load at 0xc9b3bce72efca5b1\n  #22     thread 2 load at 0xc9b3b9e72efca098\n  #21     thread 0 critical at 0xc9b3b9e72efca098\n  #20     thread 1 load at 0xc9b3b9e72efca098\n  #19     thread 1 store at 0xc9b3b9e72efca098\n  #18     thread 2 load at 0xc9b3b9e72efca098\n  #17     thread 0 load at 0xc9b3bce72efca5b1\n  #16     thread 1 load at 0xc9b3bbe72efca3fe\n  #15     thread 1 load at 0xc9b3b9e72efca098\n  #14     thread 1 critical at 0xc9b3bbe72efca3fe\n  #13     thread 2 critical at 0xc9b3bbe72efca3fe\n  #12     thread 2 load at 0xc9b3b9e72efca098\n  #11     thread 0 load at 0xc9b3bce72efca5b1\n  #10     thread 2 load at 0xc9b3b9e72efca098\n  #9      thread 1 load at 0xc9b3b9e72efca098\n  #8      thread 2 load at 0xc9b3bce72efca5b1\n  #7      thread 1 critical at 0xc9b3bbe72efca3fe\n  #6      thread 0 store at 0xc9b3bbe72efca3fe\n  #5      thread 2 load at 0xc9b3bce72efca5b1\n  #4      thread 1 load at 0xc9b3bbe72efca3fe\n  #3      thread 1 critical at 0xc9b3b9e72efca098\n  #2      thread 1 load at 0xc9b3bbe72efca3fe\n  #1      thread 1 store at 0xc9b3bce72efca5b1\n  #0      thread 1 load at 0xc9b3bbe72efca3fe"),
    ("st Two cap 0", "replay divergence on thread 1 (domain 1) at access #10: recorded store at 0xc9b3b9e72efca098, but program executed load at 0xc9b3b9e72efca098"),
    ("st Two cap 3", "replay divergence on thread 1 (domain 1) at access #10: recorded store at 0xc9b3b9e72efca098, but program executed load at 0xc9b3b9e72efca098; last 3 accesses admitted in domain 1 (newest first):\n  #9      thread 2 load at 0xc9b3b9e72efca098\n  #8      thread 0 critical at 0xc9b3b9e72efca098\n  #7      thread 1 load at 0xc9b3b9e72efca098"),
    ("st Two cap 64", "replay divergence on thread 1 (domain 1) at access #10: recorded store at 0xc9b3b9e72efca098, but program executed load at 0xc9b3b9e72efca098; last 10 accesses admitted in domain 1 (newest first):\n  #9      thread 2 load at 0xc9b3b9e72efca098\n  #8      thread 0 critical at 0xc9b3b9e72efca098\n  #7      thread 1 load at 0xc9b3b9e72efca098\n  #6      thread 1 store at 0xc9b3b9e72efca098\n  #5      thread 2 load at 0xc9b3b9e72efca098\n  #4      thread 1 load at 0xc9b3b9e72efca098\n  #3      thread 2 load at 0xc9b3b9e72efca098\n  #2      thread 2 load at 0xc9b3b9e72efca098\n  #1      thread 1 load at 0xc9b3b9e72efca098\n  #0      thread 1 critical at 0xc9b3b9e72efca098"),
    ("st Flight cap 0", "replay divergence on thread 2 (domain 0) at access #4: recorded load at 0xc9b3b9e72efca098, but program executed store at 0xc9b3b9e72efca098"),
    ("st Flight cap 3", "replay divergence on thread 2 (domain 0) at access #4: recorded load at 0xc9b3b9e72efca098, but program executed store at 0xc9b3b9e72efca098; last 3 accesses admitted in domain 0 (newest first):\n  #3      thread 1 store at 0xc9b3b9e72efca098\n  #2      thread 2 critical at 0xc9b3bbe72efca3fe\n  #1      thread 1 load at 0xc9b3bce72efca5b1"),
    ("st Flight cap 64", "replay divergence on thread 2 (domain 0) at access #4: recorded load at 0xc9b3b9e72efca098, but program executed store at 0xc9b3b9e72efca098; last 4 accesses admitted in domain 0 (newest first):\n  #3      thread 1 store at 0xc9b3b9e72efca098\n  #2      thread 2 critical at 0xc9b3bbe72efca3fe\n  #1      thread 1 load at 0xc9b3bce72efca5b1\n  #0      thread 1 load at 0xc9b3bbe72efca3fe"),
    ("dc One cap 0", "replay divergence on thread 2 (domain 0) at access #8: recorded load at 0xc9b3b9e72efca098, but program executed store at 0xc9b3b9e72efca098"),
    ("dc One cap 3", "replay divergence on thread 2 (domain 0) at access #8: recorded load at 0xc9b3b9e72efca098, but program executed store at 0xc9b3b9e72efca098; last 3 accesses admitted in domain 0 (newest first):\n  #27     thread 1 store at 0xc9b3b9e72efca098\n  #26     thread 2 critical at 0xc9b3bbe72efca3fe\n  #25     thread 1 load at 0xc9b3bce72efca5b1"),
    ("dc One cap 64", "replay divergence on thread 2 (domain 0) at access #8: recorded load at 0xc9b3b9e72efca098, but program executed store at 0xc9b3b9e72efca098; last 28 accesses admitted in domain 0 (newest first):\n  #27     thread 1 store at 0xc9b3b9e72efca098\n  #26     thread 2 critical at 0xc9b3bbe72efca3fe\n  #25     thread 1 load at 0xc9b3bce72efca5b1\n  #24     thread 1 load at 0xc9b3bbe72efca3fe\n  #23     thread 1 load at 0xc9b3bce72efca5b1\n  #22     thread 2 load at 0xc9b3b9e72efca098\n  #21     thread 0 critical at 0xc9b3b9e72efca098\n  #20     thread 1 load at 0xc9b3b9e72efca098\n  #19     thread 1 store at 0xc9b3b9e72efca098\n  #18     thread 2 load at 0xc9b3b9e72efca098\n  #17     thread 0 load at 0xc9b3bce72efca5b1\n  #16     thread 1 load at 0xc9b3bbe72efca3fe\n  #15     thread 1 load at 0xc9b3b9e72efca098\n  #14     thread 1 critical at 0xc9b3bbe72efca3fe\n  #13     thread 2 critical at 0xc9b3bbe72efca3fe\n  #12     thread 2 load at 0xc9b3b9e72efca098\n  #11     thread 0 load at 0xc9b3bce72efca5b1\n  #10     thread 2 load at 0xc9b3b9e72efca098\n  #9      thread 1 load at 0xc9b3b9e72efca098\n  #8      thread 2 load at 0xc9b3bce72efca5b1\n  #7      thread 1 critical at 0xc9b3bbe72efca3fe\n  #6      thread 0 store at 0xc9b3bbe72efca3fe\n  #5      thread 2 load at 0xc9b3bce72efca5b1\n  #4      thread 1 load at 0xc9b3bbe72efca3fe\n  #3      thread 1 critical at 0xc9b3b9e72efca098\n  #2      thread 1 load at 0xc9b3bbe72efca3fe\n  #1      thread 1 store at 0xc9b3bce72efca5b1\n  #0      thread 1 load at 0xc9b3bbe72efca3fe"),
    ("dc Two cap 0", "replay divergence on thread 1 (domain 1) at access #5: recorded store at 0xc9b3b9e72efca098, but program executed load at 0xc9b3b9e72efca098"),
    ("dc Two cap 3", "replay divergence on thread 1 (domain 1) at access #5: recorded store at 0xc9b3b9e72efca098, but program executed load at 0xc9b3b9e72efca098; last 3 accesses admitted in domain 1 (newest first):\n  #9      thread 2 load at 0xc9b3b9e72efca098\n  #8      thread 0 critical at 0xc9b3b9e72efca098\n  #7      thread 1 load at 0xc9b3b9e72efca098"),
    ("dc Two cap 64", "replay divergence on thread 1 (domain 1) at access #5: recorded store at 0xc9b3b9e72efca098, but program executed load at 0xc9b3b9e72efca098; last 10 accesses admitted in domain 1 (newest first):\n  #9      thread 2 load at 0xc9b3b9e72efca098\n  #8      thread 0 critical at 0xc9b3b9e72efca098\n  #7      thread 1 load at 0xc9b3b9e72efca098\n  #6      thread 1 store at 0xc9b3b9e72efca098\n  #5      thread 2 load at 0xc9b3b9e72efca098\n  #4      thread 1 load at 0xc9b3b9e72efca098\n  #3      thread 2 load at 0xc9b3b9e72efca098\n  #2      thread 2 load at 0xc9b3b9e72efca098\n  #1      thread 1 load at 0xc9b3b9e72efca098\n  #0      thread 1 critical at 0xc9b3b9e72efca098"),
    ("dc Flight cap 0", "replay divergence on thread 2 (domain 0) at access #2: recorded load at 0xc9b3b9e72efca098, but program executed store at 0xc9b3b9e72efca098"),
    ("dc Flight cap 3", "replay divergence on thread 2 (domain 0) at access #2: recorded load at 0xc9b3b9e72efca098, but program executed store at 0xc9b3b9e72efca098; last 3 accesses admitted in domain 0 (newest first):\n  #27     thread 1 store at 0xc9b3b9e72efca098\n  #26     thread 2 critical at 0xc9b3bbe72efca3fe\n  #25     thread 1 load at 0xc9b3bce72efca5b1"),
    ("dc Flight cap 64", "replay divergence on thread 2 (domain 0) at access #2: recorded load at 0xc9b3b9e72efca098, but program executed store at 0xc9b3b9e72efca098; last 7 accesses admitted in domain 0 (newest first):\n  #27     thread 1 store at 0xc9b3b9e72efca098\n  #26     thread 2 critical at 0xc9b3bbe72efca3fe\n  #25     thread 1 load at 0xc9b3bce72efca5b1\n  #24     thread 1 load at 0xc9b3bbe72efca3fe\n  #23     thread 1 load at 0xc9b3bce72efca5b1\n  #22     thread 2 load at 0xc9b3b9e72efca098\n  #21     thread 0 critical at 0xc9b3b9e72efca098"),
    ("de One cap 0", "replay divergence on thread 2 (domain 0) at access #8: recorded load at 0xc9b3b9e72efca098, but program executed store at 0xc9b3b9e72efca098"),
    ("de One cap 3", "replay divergence on thread 2 (domain 0) at access #8: recorded load at 0xc9b3b9e72efca098, but program executed store at 0xc9b3b9e72efca098; last 3 accesses admitted in domain 0 (newest first):\n  #27     thread 1 store at 0xc9b3b9e72efca098\n  #26     thread 2 critical at 0xc9b3bbe72efca3fe\n  #25     thread 1 load at 0xc9b3bce72efca5b1"),
    ("de One cap 64", "replay divergence on thread 2 (domain 0) at access #8: recorded load at 0xc9b3b9e72efca098, but program executed store at 0xc9b3b9e72efca098; last 28 accesses admitted in domain 0 (newest first):\n  #27     thread 1 store at 0xc9b3b9e72efca098\n  #26     thread 2 critical at 0xc9b3bbe72efca3fe\n  #25     thread 1 load at 0xc9b3bce72efca5b1\n  #24     thread 1 load at 0xc9b3bbe72efca3fe\n  #23     thread 1 load at 0xc9b3bce72efca5b1\n  #22     thread 2 load at 0xc9b3b9e72efca098\n  #21     thread 0 critical at 0xc9b3b9e72efca098\n  #20     thread 1 load at 0xc9b3b9e72efca098\n  #19     thread 1 store at 0xc9b3b9e72efca098\n  #18     thread 2 load at 0xc9b3b9e72efca098\n  #17     thread 0 load at 0xc9b3bce72efca5b1\n  #16     thread 1 load at 0xc9b3bbe72efca3fe\n  #15     thread 1 load at 0xc9b3b9e72efca098\n  #14     thread 1 critical at 0xc9b3bbe72efca3fe\n  #13     thread 2 critical at 0xc9b3bbe72efca3fe\n  #12     thread 2 load at 0xc9b3b9e72efca098\n  #11     thread 0 load at 0xc9b3bce72efca5b1\n  #9      thread 1 load at 0xc9b3b9e72efca098\n  #9      thread 2 load at 0xc9b3b9e72efca098\n  #8      thread 2 load at 0xc9b3bce72efca5b1\n  #7      thread 1 critical at 0xc9b3bbe72efca3fe\n  #6      thread 0 store at 0xc9b3bbe72efca3fe\n  #5      thread 2 load at 0xc9b3bce72efca5b1\n  #4      thread 1 load at 0xc9b3bbe72efca3fe\n  #3      thread 1 critical at 0xc9b3b9e72efca098\n  #2      thread 1 load at 0xc9b3bbe72efca3fe\n  #1      thread 1 store at 0xc9b3bce72efca5b1\n  #0      thread 1 load at 0xc9b3bbe72efca3fe"),
    ("de Two cap 0", "replay divergence on thread 1 (domain 1) at access #5: recorded store at 0xc9b3b9e72efca098, but program executed load at 0xc9b3b9e72efca098"),
    ("de Two cap 3", "replay divergence on thread 1 (domain 1) at access #5: recorded store at 0xc9b3b9e72efca098, but program executed load at 0xc9b3b9e72efca098; last 3 accesses admitted in domain 1 (newest first):\n  #9      thread 2 load at 0xc9b3b9e72efca098\n  #8      thread 0 critical at 0xc9b3b9e72efca098\n  #7      thread 1 load at 0xc9b3b9e72efca098"),
    ("de Two cap 64", "replay divergence on thread 1 (domain 1) at access #5: recorded store at 0xc9b3b9e72efca098, but program executed load at 0xc9b3b9e72efca098; last 10 accesses admitted in domain 1 (newest first):\n  #9      thread 2 load at 0xc9b3b9e72efca098\n  #8      thread 0 critical at 0xc9b3b9e72efca098\n  #7      thread 1 load at 0xc9b3b9e72efca098\n  #6      thread 1 store at 0xc9b3b9e72efca098\n  #1      thread 1 load at 0xc9b3b9e72efca098\n  #1      thread 1 load at 0xc9b3b9e72efca098\n  #1      thread 2 load at 0xc9b3b9e72efca098\n  #1      thread 2 load at 0xc9b3b9e72efca098\n  #1      thread 2 load at 0xc9b3b9e72efca098\n  #0      thread 1 critical at 0xc9b3b9e72efca098"),
    ("de Flight cap 0", "replay divergence on thread 2 (domain 0) at access #2: recorded load at 0xc9b3b9e72efca098, but program executed store at 0xc9b3b9e72efca098"),
    ("de Flight cap 3", "replay divergence on thread 2 (domain 0) at access #2: recorded load at 0xc9b3b9e72efca098, but program executed store at 0xc9b3b9e72efca098; last 3 accesses admitted in domain 0 (newest first):\n  #27     thread 1 store at 0xc9b3b9e72efca098\n  #26     thread 2 critical at 0xc9b3bbe72efca3fe\n  #25     thread 1 load at 0xc9b3bce72efca5b1"),
    ("de Flight cap 64", "replay divergence on thread 2 (domain 0) at access #2: recorded load at 0xc9b3b9e72efca098, but program executed store at 0xc9b3b9e72efca098; last 7 accesses admitted in domain 0 (newest first):\n  #27     thread 1 store at 0xc9b3b9e72efca098\n  #26     thread 2 critical at 0xc9b3bbe72efca3fe\n  #25     thread 1 load at 0xc9b3bce72efca5b1\n  #24     thread 1 load at 0xc9b3bbe72efca3fe\n  #23     thread 1 load at 0xc9b3bce72efca5b1\n  #22     thread 2 load at 0xc9b3b9e72efca098\n  #21     thread 0 critical at 0xc9b3b9e72efca098"),
];

#[test]
fn divergence_reports_match_the_pinned_history() {
    let mut got = Vec::new();
    for scheme in Scheme::ALL {
        for layout in [Layout::One, Layout::Two, Layout::Flight] {
            for cap in [0, 3, 64] {
                let case = format!("{scheme} {layout:?} cap {cap}");
                got.push((case, diverge(record(scheme, layout), cap)));
            }
        }
    }
    let pinned: Vec<(String, String)> = PINNED
        .iter()
        .map(|&(c, d)| (c.to_string(), d.to_string()))
        .collect();
    if got != pinned {
        let mut table = String::from("const PINNED: &[(&str, &str)] = &[\n");
        for (case, text) in &got {
            table.push_str(&format!("    ({case:?}, {text:?}),\n"));
        }
        table.push_str("];\n");
        panic!("divergence reports moved; the observed table:\n{table}");
    }
}
