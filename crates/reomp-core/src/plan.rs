//! The site map: one [`DomainPlan`] decides, for every site, whether it is
//! gated and which gate domain orders it — the decision the paper's
//! toolflow (§III, Fig. 2) makes once, before recording.
//!
//! A plan pins sites to domains and has one rule for the sites it does not
//! list: the **hashed** fallback (the default; splitmix64 then modulo, so
//! sequential site ids do not stripe into adjacent domains as a blind
//! `raw % D` does), **ungated** for a [closed](DomainPlan::closed) plan
//! (the toolflow's instrumentation plan), or `raw % D`, which is never
//! chosen for a recording or stamped: [`TraceBundle::partition`] builds it
//! only to read a plan-less multi-domain bundle.
//!
//! Pinning is what makes multi-domain recording sound: two *aliased* sites
//! (distinct sites, same memory cell) may fall into different domains
//! under any fallback, and multi-domain recording keeps no order between
//! domains; `racedet::DomainPlanner` pins every aliased or racing group
//! into **one** domain. A recording stamps its plan, the ungated rule
//! included ([`crate::codec::encode_plan`]), and replay reconstructs the
//! identical map from the bundle. The per-access lookup is a binary search
//! over the sorted pins; when a site is pinned twice, the last pin wins.
//!
//! [`TraceBundle::partition`]: crate::trace::TraceBundle::partition

use crate::site::{splitmix64, SiteId};

/// What a plan does with a site it does not list (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Unlisted {
    Hashed,
    Ungated,
    Modulo,
}

/// The site map: explicit `SiteId → domain` pins plus a rule for every
/// other site (see the [module docs](self)). A pure function of the site
/// id, so record and replay evaluate it identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainPlan {
    domains: u32,
    unlisted: Unlisted,
    /// `(raw site, domain)`, sorted by site, one entry per site.
    assign: Box<[(u64, u32)]>,
}

impl Default for DomainPlan {
    /// The single-domain plan — `domains` must stay ≥ 1 even for a
    /// defaulted value, or it could be stamped into a trace that can
    /// never validate.
    fn default() -> DomainPlan {
        DomainPlan::new(1)
    }
}

impl DomainPlan {
    /// An empty plan over `domains` gate domains (clamped to ≥ 1): every
    /// site is gated and falls back to the mixed-hash partition.
    #[must_use]
    pub fn new(domains: u32) -> DomainPlan {
        DomainPlan {
            domains: domains.max(1),
            unlisted: Unlisted::Hashed,
            assign: Box::default(),
        }
    }

    /// The plan-less multi-domain partition, `raw % D`: what a bundle
    /// recorded before plans existed was routed by.
    pub(crate) fn legacy_modulo(domains: u32) -> DomainPlan {
        DomainPlan {
            unlisted: Unlisted::Modulo,
            ..DomainPlan::new(domains)
        }
    }

    /// A plan with explicit assignments; when a site is assigned more than
    /// once, the last assignment wins.
    ///
    /// # Panics
    /// Panics when an assignment names a domain `>= domains` (a plan that
    /// routes a site outside the partition can never replay).
    #[must_use]
    pub fn with_assignments(
        domains: u32,
        assignments: impl IntoIterator<Item = (SiteId, u32)>,
    ) -> DomainPlan {
        let mut plan = DomainPlan::new(domains);
        let mut assign: Vec<(u64, u32)> = assignments
            .into_iter()
            .map(|(site, dom)| {
                plan.check(site, dom);
                (site.raw(), dom)
            })
            .collect();
        // Stable, so equal sites keep their order and the last one of
        // each run is the last assignment.
        assign.sort_by_key(|&(site, _)| site);
        assign.dedup_by(|later, earlier| {
            let same = later.0 == earlier.0;
            if same {
                earlier.1 = later.1;
            }
            same
        });
        plan.assign = assign.into_boxed_slice();
        plan
    }

    /// This plan with its unlisted sites ungated: only the pinned sites
    /// pass through the recorder.
    #[must_use]
    pub fn closed(self) -> DomainPlan {
        DomainPlan {
            unlisted: Unlisted::Ungated,
            ..self
        }
    }

    /// Pin `site` to `dom`. O(n) per call: build a large plan with
    /// [`DomainPlan::with_assignments`].
    ///
    /// # Panics
    /// Panics when `dom >= domains`.
    pub fn set(&mut self, site: SiteId, dom: u32) {
        self.check(site, dom);
        match self.position(site) {
            Ok(i) => self.assign[i].1 = dom,
            Err(i) => {
                let mut assign = std::mem::take(&mut self.assign).into_vec();
                assign.insert(i, (site.raw(), dom));
                self.assign = assign.into_boxed_slice();
            }
        }
    }

    /// Panic unless `dom` is one of the plan's domains.
    fn check(&self, site: SiteId, dom: u32) {
        assert!(
            dom < self.domains,
            "plan assigns {site} to domain {dom} but only {} domains exist",
            self.domains
        );
    }

    /// Where `site` is (`Ok`) or would be (`Err`) in the sorted
    /// assignments.
    #[inline]
    fn position(&self, site: SiteId) -> Result<usize, usize> {
        self.assign.binary_search_by_key(&site.raw(), |&(s, _)| s)
    }

    /// Number of gate domains the plan partitions sites across.
    #[must_use]
    pub fn domains(&self) -> u32 {
        self.domains
    }

    /// Number of explicitly pinned sites.
    #[must_use]
    pub fn assigned(&self) -> usize {
        self.assign.len()
    }

    /// Whether the plan pins no sites.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.assign.is_empty()
    }

    /// Whether unlisted sites are ungated (see [`DomainPlan::closed`]).
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.unlisted == Unlisted::Ungated
    }

    /// Whether this is the plan-less `raw % D` partition, which no
    /// recording may stamp.
    pub(crate) fn is_legacy(&self) -> bool {
        self.unlisted == Unlisted::Modulo
    }

    /// The one lookup: the domain that orders `site`, or `None` when the
    /// plan leaves it ungated.
    #[inline]
    #[must_use]
    pub fn route(&self, site: SiteId) -> Option<u32> {
        if self.domains == 1 && self.unlisted != Unlisted::Ungated {
            return Some(0);
        }
        match self.position(site) {
            Ok(i) => Some(self.assign[i].1),
            Err(_) => match self.unlisted {
                Unlisted::Hashed => Some(Self::hashed_fallback(self.domains, site)),
                Unlisted::Ungated => None,
                Unlisted::Modulo => Some((site.raw() % u64::from(self.domains)) as u32),
            },
        }
    }

    /// The domain of a gated `site`.
    ///
    /// # Panics
    /// Panics when a closed plan leaves `site` ungated.
    #[inline]
    #[must_use]
    pub fn domain_of(&self, site: SiteId) -> u32 {
        self.route(site)
            .unwrap_or_else(|| panic!("the closed plan leaves {site} ungated"))
    }

    /// The mixed-hash fallback partition: splitmix64 over the raw site id,
    /// then modulo. Unlike the legacy `raw % D` it does not stripe
    /// sequentially-allocated site ids into adjacent domains.
    #[inline]
    #[must_use]
    pub fn hashed_fallback(domains: u32, site: SiteId) -> u32 {
        if domains <= 1 {
            0
        } else {
            (splitmix64(site.raw()) % u64::from(domains)) as u32
        }
    }

    /// Explicit assignments sorted by raw site id — the deterministic
    /// iteration order the codec serializes.
    #[must_use]
    pub fn sorted_assignments(&self) -> Vec<(u64, u32)> {
        self.assign.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_uses_hashed_fallback() {
        let plan = DomainPlan::new(4);
        assert_eq!(plan.domains(), 4);
        assert!(plan.is_empty());
        for raw in 0..64u64 {
            let dom = plan.domain_of(SiteId(raw));
            assert!(dom < 4);
            assert_eq!(dom, DomainPlan::hashed_fallback(4, SiteId(raw)));
        }
    }

    #[test]
    fn explicit_assignment_wins_over_fallback() {
        let site = SiteId(0xfeed);
        let mut plan = DomainPlan::new(4);
        let fallback = plan.domain_of(site);
        let pinned = (fallback + 1) % 4;
        plan.set(site, pinned);
        assert_eq!(plan.domain_of(site), pinned);
        assert_eq!(plan.assigned(), 1);
    }

    #[test]
    fn hashed_fallback_spreads_sequential_sites() {
        // The defect the mixing hash fixes: 4k sequential ids must not
        // stripe — every domain should see a reasonable share even when
        // ids share low bits. With raw % 4, ids 0,4,8,.. (step 4) all land
        // in domain 0; with the mix they spread.
        let domains = 4u32;
        let mut hits = vec![0u32; domains as usize];
        for i in 0..4096u64 {
            hits[DomainPlan::hashed_fallback(domains, SiteId(i * 4)) as usize] += 1;
        }
        for (dom, &n) in hits.iter().enumerate() {
            assert!(
                n > 700,
                "domain {dom} got {n}/4096 sequential-stride sites: {hits:?}"
            );
        }
        // The legacy modulo demonstrably fails the same distribution.
        let modulo = DomainPlan::legacy_modulo(domains);
        let mut legacy = vec![0u32; domains as usize];
        for i in 0..4096u64 {
            legacy[modulo.domain_of(SiteId(i * 4)) as usize] += 1;
        }
        assert_eq!(legacy[0], 4096, "raw modulo stripes stride-4 ids");
    }

    #[test]
    fn partition_is_a_pure_function() {
        let plan = DomainPlan::with_assignments(3, [(SiteId(1), 2), (SiteId(9), 0)]);
        for raw in [1u64, 9, 77, u64::MAX] {
            assert_eq!(plan.domain_of(SiteId(raw)), plan.domain_of(SiteId(raw)));
        }
    }

    #[test]
    #[should_panic(expected = "only 2 domains exist")]
    fn out_of_range_assignment_rejected() {
        let mut plan = DomainPlan::new(2);
        plan.set(SiteId(3), 2);
    }

    #[test]
    fn single_domain_plan_maps_everything_to_zero() {
        let plan = DomainPlan::new(0); // clamps to 1
        assert_eq!(plan.domains(), 1);
        assert_eq!(plan.domain_of(SiteId(u64::MAX)), 0);
        // Default must uphold the same domains >= 1 invariant.
        assert_eq!(DomainPlan::default(), DomainPlan::new(1));
    }

    #[test]
    fn last_assignment_wins() {
        let (a, b) = (SiteId(7), SiteId(3));
        let plan = DomainPlan::with_assignments(4, [(a, 1), (b, 2), (a, 3), (b, 0), (a, 2)]);
        assert_eq!(plan.sorted_assignments(), vec![(3, 0), (7, 2)]);
        let mut set = DomainPlan::new(4);
        for (site, dom) in [(a, 1), (b, 2), (a, 3), (b, 0), (a, 2)] {
            set.set(site, dom);
        }
        assert_eq!(set, plan, "set and with_assignments agree");
        assert_eq!(plan.domain_of(a), 2);
        assert_eq!(plan.domain_of(b), 0);
    }

    #[test]
    fn sorted_assignments_are_deterministic() {
        let plan =
            DomainPlan::with_assignments(4, [(SiteId(9), 1), (SiteId(1), 3), (SiteId(4), 0)]);
        assert_eq!(plan.sorted_assignments(), vec![(1, 3), (4, 0), (9, 1)]);
    }
}
