//! Post-hoc trace analysis: summaries, ASCII timelines, and trace
//! *diffing*.
//!
//! Record-and-replay earns its keep during debugging, and debugging needs
//! to *look at* traces: which thread did what when, and — when a replay
//! diverges or two recordings differ — where exactly the first difference
//! sits. The order shown is [`TraceBundle::linearize`]'s: each domain's
//! recorded order, merged through the cross-domain edges. The
//! `reomp-inspect` binary in the workspace root wraps this module for the
//! command line.

use crate::session::Scheme;
use crate::site::{AccessKind, SiteId};
use crate::stats::GateCounts;
use crate::trace::{StTrace, ThreadTrace, TraceBundle};
use std::collections::BTreeMap;
use std::fmt;

/// Aggregate facts about one bundle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Recording scheme.
    pub scheme: Scheme,
    /// Thread count.
    pub nthreads: u32,
    /// Gate-domain count (1 = classic single-gate recording).
    pub domains: u32,
    /// Records per thread across all domains (ST: per-thread share of the
    /// shared streams).
    pub per_thread: Vec<u64>,
    /// Access counts per kind (only when the trace carries kinds).
    pub kinds: BTreeMap<&'static str, u64>,
    /// Distinct sites touched (only when the trace carries sites).
    pub distinct_sites: Option<u64>,
    /// Explicitly planned sites (`None`: recorded without a domain plan).
    pub planned_sites: Option<u64>,
    /// Cross-domain happens-before edges in the trace.
    pub edges: u64,
    /// Whether the edges admit a full interleaving (always true for
    /// genuinely recorded traces; `false` flags corrupt/cyclic edges).
    pub edges_consistent: bool,
}

impl TraceSummary {
    /// Total records.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.per_thread.iter().sum()
    }
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scheme {} · {} threads · {} records",
            self.scheme.name(),
            self.nthreads,
            self.total()
        )?;
        if self.domains > 1 {
            write!(f, " · {} gate domains", self.domains)?;
        }
        writeln!(f)?;
        for (tid, n) in self.per_thread.iter().enumerate() {
            writeln!(f, "  thread {tid}: {n} records")?;
        }
        if let Some(sites) = self.distinct_sites {
            writeln!(f, "  distinct sites: {sites}")?;
        }
        if let Some(n) = self.planned_sites {
            writeln!(f, "  domain plan: {n} pinned site(s)")?;
        }
        if self.edges > 0 {
            writeln!(
                f,
                "  cross-domain edges: {}{}",
                self.edges,
                if self.edges_consistent {
                    ""
                } else {
                    " (INCONSISTENT)"
                }
            )?;
        }
        for (kind, n) in &self.kinds {
            writeln!(f, "  {kind}: {n}")?;
        }
        Ok(())
    }
}

/// Summarize a bundle. The record and kind counts are [`GateCounts::of`]'s
/// — the ones a session reports for the run.
#[must_use]
pub fn summarize(bundle: &TraceBundle) -> TraceSummary {
    let counts = GateCounts::of(bundle);
    let gates_of = |kind| counts.threads.iter().map(|t| t.gates_of(kind)).sum();
    let kinds = AccessKind::ALL
        .into_iter()
        .map(|kind| (kind.name(), gates_of(kind)))
        .filter(|&(_, n)| n > 0)
        .collect();
    let order = bundle.linearize();
    let sites: std::collections::HashSet<SiteId> =
        order.accesses.iter().filter_map(|e| e.site).collect();
    TraceSummary {
        scheme: bundle.scheme,
        nthreads: bundle.nthreads,
        domains: bundle.domains,
        per_thread: counts.threads.iter().map(|t| t.gates).collect(),
        distinct_sites: bundle.has_validation().then_some(sites.len() as u64),
        kinds,
        planned_sites: bundle.plan.as_ref().map(|p| p.assigned() as u64),
        edges: bundle.edges.len() as u64,
        edges_consistent: order.consistent,
    }
}

/// Render the first `max_events` accesses of the recorded order as
/// per-thread lanes:
///
/// ```text
/// value    T0 T1 T2
///     0    L  .  .
///     1    .  S  .
/// ```
#[must_use]
pub fn ascii_timeline(bundle: &TraceBundle, max_events: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let events = bundle.linearize().accesses;
    let _ = write!(out, "{:>8} ", "value");
    for tid in 0..bundle.nthreads {
        let _ = write!(out, " T{tid:<2}");
    }
    out.push('\n');
    for e in events.iter().take(max_events) {
        if bundle.domains > 1 {
            let _ = write!(out, "{:>8} ", format!("d{}:{}", e.domain, e.value));
        } else {
            let _ = write!(out, "{:>8} ", e.value);
        }
        for tid in 0..bundle.nthreads {
            // The executing thread's lane shows the kind's initial.
            let mark = match e.kind {
                _ if tid != e.thread => '.',
                Some(kind) => char::from(kind.name().as_bytes()[0].to_ascii_uppercase()),
                None => '*',
            };
            let _ = write!(out, " {mark}  ");
        }
        out.push('\n');
    }
    if events.len() > max_events {
        let _ = writeln!(out, "… {} more", events.len() - max_events);
    }
    out
}

/// The first place two traces differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceDiff {
    /// Structurally incomparable (scheme or thread count differ).
    Shape {
        /// Description of the mismatch.
        what: String,
    },
    /// Identical.
    Equal,
    /// First differing access on some stream.
    FirstDivergence {
        /// Gate domain whose streams differ (0 for single-domain traces).
        domain: u32,
        /// Thread whose streams differ; `None` for the domain's shared ST
        /// stream, whose entries record thread ids instead of values.
        thread: Option<u32>,
        /// Index of the first differing access in that stream.
        index: u64,
        /// `(value, site, kind)` in the left trace, if present; on an ST
        /// stream the value is the recorded thread id.
        left: Option<(u64, Option<SiteId>, Option<AccessKind>)>,
        /// Same for the right trace.
        right: Option<(u64, Option<SiteId>, Option<AccessKind>)>,
    },
}

impl fmt::Display for TraceDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceDiff::Shape { what } => write!(f, "traces are incomparable: {what}"),
            TraceDiff::Equal => write!(f, "traces are identical"),
            TraceDiff::FirstDivergence {
                domain,
                thread,
                index,
                left,
                right,
            } => {
                let (stream, value) = match thread {
                    Some(tid) => (format!("thread {tid}"), "value"),
                    None => ("the shared ST stream".to_string(), "thread"),
                };
                write!(
                    f,
                    "first divergence on {stream} (domain {domain}) at access #{index}: "
                )?;
                let side = |s: &Option<(u64, Option<SiteId>, Option<AccessKind>)>| match s {
                    None => "<stream ends>".to_string(),
                    Some((v, site, kind)) => {
                        let mut txt = format!("{value} {v}");
                        if let Some(k) = kind {
                            txt.push_str(&format!(" {k}"));
                        }
                        if let Some(site) = site {
                            txt.push_str(&format!(" at {site}"));
                        }
                        txt
                    }
                };
                write!(f, "{} vs {}", side(left), side(right))
            }
        }
    }
}

/// Locate the first difference between two traces of the same program —
/// e.g. two recordings of a flaky run, to see where schedules departed.
#[must_use]
pub fn diff(a: &TraceBundle, b: &TraceBundle) -> TraceDiff {
    if a.scheme != b.scheme {
        return TraceDiff::Shape {
            what: format!("schemes {} vs {}", a.scheme.name(), b.scheme.name()),
        };
    }
    if a.nthreads != b.nthreads {
        return TraceDiff::Shape {
            what: format!("{} vs {} threads", a.nthreads, b.nthreads),
        };
    }
    if a.domains != b.domains {
        return TraceDiff::Shape {
            what: format!("{} vs {} gate domains", a.domains, b.domains),
        };
    }
    // ST: a domain's shared stream records which thread passed each
    // gate, so its entries carry thread ids where DC/DE's carry values.
    if a.is_st() && b.is_st() {
        let entry = |s: &StTrace, i: usize| {
            s.tids
                .get(i)
                .map(|&tid| (u64::from(tid), s.site_at(i), s.kind_at(i)))
        };
        for (domain, (sa, sb)) in (0..).zip(a.st.iter().zip(&b.st)) {
            let n = sa.len().max(sb.len());
            if let Some(i) = (0..n).find(|&i| entry(sa, i) != entry(sb, i)) {
                return TraceDiff::FirstDivergence {
                    domain,
                    thread: None,
                    index: i as u64,
                    left: entry(sa, i),
                    right: entry(sb, i),
                };
            }
        }
        return TraceDiff::Equal;
    }
    let entry =
        |t: &ThreadTrace, i: usize| t.values.get(i).map(|&v| (v, t.site_at(i), t.kind_at(i)));
    let nthreads = a.nthreads.max(1) as usize;
    for (idx, (ta, tb)) in a.threads.iter().zip(&b.threads).enumerate() {
        let n = ta.len().max(tb.len());
        if let Some(i) = (0..n).find(|&i| entry(ta, i) != entry(tb, i)) {
            return TraceDiff::FirstDivergence {
                domain: (idx / nthreads) as u32,
                thread: Some((idx % nthreads) as u32),
                index: i as u64,
                left: entry(ta, i),
                right: entry(tb, i),
            };
        }
    }
    TraceDiff::Equal
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
                    sites: Some(vec![7, 8]),
                    kinds: Some(vec![0, 1]),
                },
                ThreadTrace {
                    values: vec![1, 2],
                    sites: Some(vec![7, 7]),
                    kinds: Some(vec![0, 0]),
                },
            ],
            st: vec![],
        }
    }

    #[test]
    fn timeline_orders_dc_by_clock() {
        let tl = dc_bundle().linearize().accesses;
        let threads: Vec<u32> = tl.iter().map(|e| e.thread).collect();
        assert_eq!(threads, vec![0, 1, 1, 0]);
        assert_eq!(tl[0].kind, Some(AccessKind::Load));
        assert_eq!(tl[3].kind, Some(AccessKind::Store));
    }

    #[test]
    fn timeline_uses_st_stream_order() {
        let b = TraceBundle {
            plan: None,
            edges: vec![],
            checkpoint: None,
            scheme: Scheme::St,
            nthreads: 2,
            domains: 1,
            threads: vec![ThreadTrace::default(), ThreadTrace::default()],
            st: vec![StTrace {
                tids: vec![1, 0, 1],
                sites: None,
                kinds: None,
            }],
        };
        let tl = b.linearize().accesses;
        assert_eq!(
            tl.iter().map(|e| e.thread).collect::<Vec<_>>(),
            vec![1, 0, 1]
        );
        assert_eq!(tl[2].value, 2);
    }

    #[test]
    fn timeline_and_diff_are_domain_aware() {
        // Two domains: threads[0..2] are domain 0, threads[2..4] domain 1.
        let b = TraceBundle {
            plan: None,
            edges: vec![],
            checkpoint: None,
            scheme: Scheme::Dc,
            nthreads: 2,
            domains: 2,
            threads: vec![
                ThreadTrace {
                    values: vec![0],
                    sites: None,
                    kinds: None,
                },
                ThreadTrace {
                    values: vec![1],
                    sites: None,
                    kinds: None,
                },
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
        };
        let tl = b.linearize().accesses;
        // Domain-major order; thread ids recovered modulo nthreads.
        assert_eq!(
            tl.iter()
                .map(|e| (e.domain, e.value, e.thread))
                .collect::<Vec<_>>(),
            vec![(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
        );
        let s = summarize(&b);
        assert_eq!(s.domains, 2);
        assert_eq!(s.per_thread, vec![2, 2]);
        assert!(s.to_string().contains("2 gate domains"));

        // Diff reports the domain of the first difference.
        let mut c = b.clone();
        c.threads[3].values = vec![9];
        match diff(&b, &c) {
            TraceDiff::FirstDivergence { domain, thread, .. } => {
                assert_eq!((domain, thread), (1, Some(1)));
            }
            other => panic!("expected divergence, got {other:?}"),
        }
        // Domain-count mismatch is a shape error.
        let mut d = b.clone();
        d.domains = 1;
        d.threads.truncate(2);
        assert!(matches!(diff(&b, &d), TraceDiff::Shape { .. }));
    }

    #[test]
    fn interleaved_timeline_respects_edges() {
        use crate::trace::CrossDomainEdge;
        let order = |b: &TraceBundle| {
            b.linearize()
                .accesses
                .iter()
                .map(|e| (e.domain, e.thread, e.value))
                .collect::<Vec<_>>()
        };
        // Two domains: d0 holds t1's clock [0], d1 holds t0's clocks
        // [0,1]. The edge forces d0's access after both of d1's, against
        // the domain-major order an edge-less bundle takes.
        let mut b = TraceBundle {
            scheme: Scheme::Dc,
            nthreads: 2,
            domains: 2,
            threads: vec![
                ThreadTrace::default(),
                ThreadTrace {
                    values: vec![0],
                    sites: Some(vec![9]),
                    kinds: Some(vec![3]),
                },
                ThreadTrace {
                    values: vec![0, 1],
                    sites: Some(vec![7, 8]),
                    kinds: Some(vec![0, 1]),
                },
                ThreadTrace::default(),
            ],
            st: vec![],
            plan: None,
            edges: vec![CrossDomainEdge {
                domain: 0,
                thread: 1,
                seq: 0,
                waits: vec![(1, 2)],
            }],
            checkpoint: None,
        };
        b.validate().unwrap();
        let tl = b.linearize().accesses;
        assert_eq!(
            order(&b),
            vec![(1, 0, 0), (1, 0, 1), (0, 1, 0)],
            "the d0 anchor must come after both d1 accesses"
        );
        assert_eq!(tl[2].site, Some(SiteId(9)));
        assert_eq!(tl[2].kind, Some(AccessKind::Critical));
        // The ASCII timeline shows the same interleaving.
        let text = ascii_timeline(&b, 10);
        let rows: Vec<&str> = text.lines().skip(1).map(str::trim_start).collect();
        assert!(
            rows[0].starts_with("d1:0") && rows[2].starts_with("d0:0"),
            "{text}"
        );
        // Edge-less, the domains follow one another.
        b.edges.clear();
        assert_eq!(order(&b), vec![(0, 1, 0), (1, 0, 0), (1, 0, 1)]);

        // ST bundle: the anchor is the shared-stream index.
        let st = TraceBundle {
            scheme: Scheme::St,
            nthreads: 2,
            domains: 2,
            threads: vec![ThreadTrace::default(); 4],
            st: vec![
                StTrace {
                    tids: vec![1],
                    sites: Some(vec![3]),
                    kinds: Some(vec![3]),
                },
                StTrace {
                    tids: vec![0, 0],
                    sites: Some(vec![1, 2]),
                    kinds: Some(vec![0, 0]),
                },
            ],
            plan: None,
            edges: vec![CrossDomainEdge {
                domain: 0,
                thread: 1,
                seq: 0,
                waits: vec![(1, 2)],
            }],
            checkpoint: None,
        };
        st.validate().unwrap();
        let tl = st.linearize().accesses;
        assert_eq!(
            tl.iter().map(|e| (e.domain, e.thread)).collect::<Vec<_>>(),
            vec![(1, 0), (1, 0), (0, 1)]
        );
        assert_eq!(tl[2].site, Some(SiteId(3)));
    }

    #[test]
    fn summary_counts_threads_kinds_sites() {
        let s = summarize(&dc_bundle());
        assert_eq!(s.total(), 4);
        assert_eq!(s.per_thread, vec![2, 2]);
        assert_eq!(s.kinds.get("load"), Some(&3));
        assert_eq!(s.kinds.get("store"), Some(&1));
        assert_eq!(s.distinct_sites, Some(2));
        assert!(s.to_string().contains("thread 1: 2 records"));
    }

    #[test]
    fn ascii_timeline_renders_lanes() {
        let art = ascii_timeline(&dc_bundle(), 10);
        assert!(art.contains("T0"), "{art}");
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 5, "{art}");
        assert!(lines[1].contains('L'));
        assert!(lines[4].contains('S'));
    }

    #[test]
    fn ascii_timeline_truncates() {
        let art = ascii_timeline(&dc_bundle(), 2);
        assert!(art.contains("… 2 more"), "{art}");
    }

    #[test]
    fn diff_equal_and_shape() {
        assert_eq!(diff(&dc_bundle(), &dc_bundle()), TraceDiff::Equal);
        let mut other = dc_bundle();
        other.scheme = Scheme::De;
        assert!(matches!(
            diff(&dc_bundle(), &other),
            TraceDiff::Shape { .. }
        ));
    }

    #[test]
    fn diff_finds_first_divergence() {
        let a = dc_bundle();
        let mut b = dc_bundle();
        b.threads[1].values[1] = 5;
        match diff(&a, &b) {
            TraceDiff::FirstDivergence {
                thread,
                index,
                left,
                right,
                ..
            } => {
                assert_eq!(thread, Some(1));
                assert_eq!(index, 1);
                assert_eq!(left.unwrap().0, 2);
                assert_eq!(right.unwrap().0, 5);
            }
            other => panic!("expected divergence, got {other:?}"),
        }
        // Length mismatch: one side ends.
        let mut c = dc_bundle();
        c.threads[0].values.pop();
        c.threads[0].sites.as_mut().unwrap().pop();
        c.threads[0].kinds.as_mut().unwrap().pop();
        match diff(&a, &c) {
            TraceDiff::FirstDivergence {
                thread,
                index,
                right,
                ..
            } => {
                assert_eq!((thread, index), (Some(0), 1));
                assert_eq!(right, None);
            }
            other => panic!("expected divergence, got {other:?}"),
        }
        let text = diff(&a, &b).to_string();
        assert!(text.contains("thread 1"), "{text}");
    }

    #[test]
    fn diff_names_the_st_stream_and_both_threads() {
        let st = |tids: Vec<u32>| TraceBundle {
            plan: None,
            edges: vec![],
            checkpoint: None,
            scheme: Scheme::St,
            nthreads: 3,
            domains: 2,
            threads: vec![ThreadTrace::default(); 6],
            st: vec![
                StTrace {
                    tids: vec![0, 1],
                    sites: Some(vec![7, 7]),
                    kinds: Some(vec![0, 0]),
                },
                StTrace {
                    sites: Some(vec![9; tids.len()]),
                    kinds: Some(vec![1; tids.len()]),
                    tids,
                },
            ],
        };
        let (a, b) = (st(vec![2, 1, 0]), st(vec![2, 0, 1]));
        assert_eq!(diff(&a, &a), TraceDiff::Equal);
        let d = diff(&a, &b);
        assert_eq!(
            d,
            TraceDiff::FirstDivergence {
                domain: 1,
                thread: None,
                index: 1,
                left: Some((1, Some(SiteId(9)), Some(AccessKind::Store))),
                right: Some((0, Some(SiteId(9)), Some(AccessKind::Store))),
            }
        );
        let text = d.to_string();
        assert!(
            text.starts_with("first divergence on the shared ST stream (domain 1) at access #1: ")
                && text.contains("thread 1 store at ")
                && text.contains(" vs thread 0 store at "),
            "{text}"
        );
        assert!(!text.contains("value"), "{text}");
    }
}
