//! The domain planner: race report → [`DomainPlan`].
//!
//! The toolflow's race-detection step (Fig. 2 step (1)) already decides
//! *which* sites are gated (`instrumentation_plan`). This module closes the
//! ROADMAP's "derive both from one race report" item: the same report also
//! decides *where* each gated site lives when the order-recording gate is
//! sharded into domains.
//!
//! Two constraints drive the assignment:
//!
//! 1. **Soundness** — sites that race on the same memory cell must record
//!    into the *same* domain, or their relative order is lost (the
//!    multi-domain trace keeps no order between domains outside of sync
//!    edges). The planner runs a union-find over the report's
//!    racing-address site groups so every such group co-locates.
//! 2. **Balance** — the remaining freedom is used to spread load: groups
//!    are greedy bin-packed onto the least-loaded domain by *observed gate
//!    frequency*, using either per-site weights or the
//!    `SessionReport::domain_gates` breakdown of a previous run as the
//!    feedback signal.

use reomp_core::{DomainPlan, SiteId};
use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::report::RaceReport;

/// Builds a [`DomainPlan`] from race reports and gate-frequency feedback.
///
/// ```
/// use racedet::{DomainPlanner, RaceReport};
/// # let report = RaceReport::default();
/// let plan = DomainPlanner::new(4).observe_report(&report).build();
/// assert_eq!(plan.domains(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct DomainPlanner {
    domains: u32,
    /// All sites the planner has seen (deterministically ordered).
    sites: BTreeSet<SiteId>,
    /// Union-find parent pointers over racing sites.
    parent: HashMap<SiteId, SiteId>,
    /// One representative site per racing address, so every site that
    /// touches the address unions into one group.
    addr_rep: HashMap<u64, SiteId>,
    /// Observed gate frequency per site (default weight 1).
    weights: HashMap<SiteId, u64>,
}

impl DomainPlanner {
    /// Planner for `domains` gate domains (clamped to ≥ 1).
    #[must_use]
    pub fn new(domains: u32) -> DomainPlanner {
        DomainPlanner {
            domains: domains.max(1),
            sites: BTreeSet::new(),
            parent: HashMap::new(),
            addr_rep: HashMap::new(),
            weights: HashMap::new(),
        }
    }

    fn find(&mut self, site: SiteId) -> SiteId {
        let p = *self.parent.entry(site).or_insert(site);
        if p == site {
            return site;
        }
        let root = self.find(p);
        self.parent.insert(site, root); // path compression
        root
    }

    fn union(&mut self, a: SiteId, b: SiteId) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: the smaller site id becomes the root.
            let (root, child) = if ra <= rb { (ra, rb) } else { (rb, ra) };
            self.parent.insert(child, root);
        }
    }

    fn note_site(&mut self, site: SiteId) {
        if site != SiteId(0) {
            self.sites.insert(site);
        }
    }

    /// Fold a race report in: both sides of every race union with each
    /// other *and* with every other site seen racing on the same address,
    /// so aliased sites (distinct sites, same cell) provably co-locate.
    /// Site 0 — the "unknown prior access" placeholder — is ignored.
    #[must_use]
    pub fn observe_report(mut self, report: &RaceReport) -> DomainPlanner {
        for race in &report.races {
            let pair: Vec<SiteId> = [race.first_site, race.second_site]
                .into_iter()
                .filter(|&s| s != SiteId(0))
                .collect();
            for &site in &pair {
                self.note_site(site);
                match self.addr_rep.get(&race.addr) {
                    Some(&rep) => self.union(rep, site),
                    None => {
                        self.addr_rep.insert(race.addr, site);
                    }
                }
            }
            if let [a, b] = pair[..] {
                self.union(a, b);
            }
        }
        self
    }

    /// Record an observed gate frequency for `site` (adds to any previous
    /// weight; unweighted sites count as 1 during packing).
    #[must_use]
    pub fn weight(mut self, site: SiteId, gates: u64) -> DomainPlanner {
        self.note_site(site);
        *self.weights.entry(site).or_insert(0) += gates;
        self
    }

    /// Fold in the per-domain gate breakdown of a *previous* run
    /// (`SessionReport::domain_gates`) executed under `prev` — the
    /// feedback loop of the toolflow. Each known site is credited its
    /// previous domain's observed gate count, split evenly among the sites
    /// that mapped there; a site with no domain data keeps its weight.
    #[must_use]
    pub fn feedback(mut self, prev: &DomainPlan, domain_gates: &[u64]) -> DomainPlanner {
        if domain_gates.is_empty() || self.sites.is_empty() {
            return self;
        }
        // How many known sites the previous partition put in each domain.
        let mut members: BTreeMap<u32, u64> = BTreeMap::new();
        let sites: Vec<SiteId> = self.sites.iter().copied().collect();
        for &site in &sites {
            *members.entry(prev.domain_of(site)).or_insert(0) += 1;
        }
        for site in sites {
            let dom = prev.domain_of(site);
            let Some(&gates) = domain_gates.get(dom as usize) else {
                continue;
            };
            let share = gates / members[&dom].max(1);
            *self.weights.entry(site).or_insert(0) += share;
        }
        self
    }

    /// Produce the plan: racing-site groups co-locate, groups are assigned
    /// greedily (heaviest first) to the least-loaded domain, and every
    /// observed site ends up explicitly pinned. Deterministic for a given
    /// input set.
    #[must_use]
    pub fn build(mut self) -> DomainPlan {
        let domains = self.domains;
        // Group sites by union-find root (singletons for non-racing ones).
        let mut groups: BTreeMap<SiteId, Vec<SiteId>> = BTreeMap::new();
        let sites: Vec<SiteId> = self.sites.iter().copied().collect();
        for site in sites {
            let root = self.find(site);
            groups.entry(root).or_default().push(site);
        }
        // Heaviest group first; ties break on the (ordered) root id.
        let mut ordered: Vec<(u64, SiteId, Vec<SiteId>)> = groups
            .into_iter()
            .map(|(root, members)| {
                let w: u64 = members
                    .iter()
                    .map(|s| self.weights.get(s).copied().unwrap_or(1).max(1))
                    .sum();
                (w, root, members)
            })
            .collect();
        ordered.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

        let mut assignments = Vec::new();
        let mut load = vec![0u64; domains as usize];
        for (w, _, members) in ordered {
            // Least-loaded domain, lowest id on ties.
            let dom = (0..domains)
                .min_by_key(|&d| (load[d as usize], d))
                .unwrap_or(0);
            load[dom as usize] += w;
            assignments.extend(members.into_iter().map(|site| (site, dom)));
        }
        DomainPlan::with_assignments(domains, assignments)
    }
}

/// One-shot convenience: a plan over `domains` domains from a single race
/// report, with unit weights.
#[must_use]
pub fn domain_plan(report: &RaceReport, domains: u32) -> DomainPlan {
    DomainPlanner::new(domains).observe_report(report).build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{AccessSide, RaceInfo};

    fn race(a: u64, b: u64, addr: u64) -> RaceInfo {
        RaceInfo {
            addr,
            first_site: SiteId(a),
            first_side: AccessSide::Write,
            first_tid: 0,
            second_site: SiteId(b),
            second_side: AccessSide::Write,
            second_tid: 1,
        }
    }

    #[test]
    fn racing_pairs_co_locate() {
        let report = RaceReport {
            races: vec![race(1, 2, 100), race(3, 4, 200)],
            events_analysed: 4,
        };
        let plan = domain_plan(&report, 4);
        assert_eq!(plan.domain_of(SiteId(1)), plan.domain_of(SiteId(2)));
        assert_eq!(plan.domain_of(SiteId(3)), plan.domain_of(SiteId(4)));
        assert_eq!(plan.assigned(), 4);
    }

    #[test]
    fn same_address_transitively_co_locates_disjoint_pairs() {
        // Two races with disjoint site pairs on ONE address: all four
        // sites alias the same memory and must share a domain.
        let report = RaceReport {
            races: vec![race(1, 2, 100), race(3, 4, 100)],
            events_analysed: 4,
        };
        let plan = domain_plan(&report, 4);
        let dom = plan.domain_of(SiteId(1));
        for s in [2u64, 3, 4] {
            assert_eq!(plan.domain_of(SiteId(s)), dom, "site {s}");
        }
    }

    #[test]
    fn placeholder_site_zero_is_ignored() {
        let report = RaceReport {
            races: vec![race(0, 5, 100)],
            events_analysed: 1,
        };
        let plan = domain_plan(&report, 2);
        assert_eq!(plan.assigned(), 1, "only site 5 is planned");
    }

    #[test]
    fn independent_groups_spread_across_domains() {
        // 4 equally-weighted independent pairs over 4 domains: greedy
        // packing gives each pair its own domain.
        let report = RaceReport {
            races: (0..4).map(|i| race(10 + i, 20 + i, 1000 + i)).collect(),
            events_analysed: 8,
        };
        let plan = domain_plan(&report, 4);
        let doms: std::collections::HashSet<u32> =
            (0..4).map(|i| plan.domain_of(SiteId(10 + i))).collect();
        assert_eq!(doms.len(), 4, "four groups on four domains");
    }

    #[test]
    fn weights_drive_bin_packing() {
        // One hot group (weight 100) and three cold groups over 2 domains:
        // the three cold ones must share the other domain.
        let report = RaceReport {
            races: vec![
                race(1, 2, 100),
                race(11, 12, 200),
                race(21, 22, 300),
                race(31, 32, 400),
            ],
            events_analysed: 8,
        };
        let plan = DomainPlanner::new(2)
            .observe_report(&report)
            .weight(SiteId(1), 100)
            .build();
        let hot = plan.domain_of(SiteId(1));
        for s in [11u64, 21, 31] {
            assert_ne!(plan.domain_of(SiteId(s)), hot, "cold group {s}");
        }
    }

    #[test]
    fn feedback_credits_previous_domain_load() {
        // Previous run under the legacy modulo put sites 2 and 4 in domain
        // 0 (raw % 2 == 0) and site 3 in domain 1. Domain 0 was 100× as
        // hot; after feedback the two even sites are the heavy ones and
        // end up separated for balance.
        let report = RaceReport::default();
        let prev = DomainPlan::new(2); // hashed fallback, irrelevant here
        let planner = DomainPlanner::new(2)
            .observe_report(&report)
            .weight(SiteId(2), 0)
            .weight(SiteId(3), 0)
            .weight(SiteId(4), 0)
            .feedback(&prev, &[0, 0]);
        // No gates observed anywhere: weights stay ~0, packing still total.
        let plan = planner.build();
        assert_eq!(plan.assigned(), 3);

        let prev =
            DomainPlan::with_assignments(2, [(SiteId(2), 0), (SiteId(4), 0), (SiteId(3), 1)]);
        let plan = DomainPlanner::new(2)
            .weight(SiteId(2), 0)
            .weight(SiteId(3), 0)
            .weight(SiteId(4), 0)
            .feedback(&prev, &[1000, 10])
            .build();
        // The two previously-hot sites split across domains.
        assert_ne!(plan.domain_of(SiteId(2)), plan.domain_of(SiteId(4)));
    }

    #[test]
    fn plan_is_deterministic() {
        let report = RaceReport {
            races: vec![race(5, 6, 1), race(7, 8, 2), race(9, 10, 3)],
            events_analysed: 6,
        };
        let a = domain_plan(&report, 3);
        let b = domain_plan(&report, 3);
        assert_eq!(a, b);
    }
}
