//! Domain planning: explicit site → gate-domain assignment.
//!
//! PR 3's gate domains partitioned sites with a blind `site.raw() % D`
//! hash. That partition has two defects the planning layer fixes:
//!
//! 1. **Soundness.** Two *aliased* sites — distinct instrumentation sites
//!    that touch the same memory cell — may hash into different domains,
//!    and multi-domain recording keeps no order *between* domains, so the
//!    relative order of those racing accesses is silently lost. A
//!    [`DomainPlan`] lets the race-detection toolflow pin every group of
//!    aliased/racing sites into **one** domain (see
//!    `racedet::DomainPlanner`), restoring the paper's ordering guarantee
//!    for exactly the accesses that need it.
//! 2. **Load balance.** Site ids derived from indexed labels are often
//!    sequential; raw modulo stripes adjacent sites into adjacent domains
//!    and can pile a hot loop's sites onto one domain. Sites *not*
//!    explicitly assigned by a plan fall back to a splitmix64-mixed hash
//!    before the modulo, which spreads any site-id pattern evenly.
//!
//! A plan is part of the trace: recordings made with a plan stamp it into
//! the store (`plan` manifest line + `plan.rtrc` section, see
//! [`crate::codec::encode_plan`]), and replay sessions reconstruct the
//! identical partition from the bundle. Plan-less multi-domain recordings
//! keep the legacy raw-modulo partition so PR 3 trace directories replay
//! unchanged.
//!
//! A planned session resolves the domain on every gated access, so the
//! lookup is a binary search over the assignments sorted by site — no
//! hash of the site on the per-access path. Building a plan sorts once
//! (O(n log n)); when a site is assigned twice, the last assignment wins.

use crate::site::{splitmix64, SiteId};

/// An explicit `SiteId → domain` assignment plus a mixed-hash fallback for
/// unassigned sites.
///
/// The partition is a pure function of the site id: record and replay
/// evaluate it identically, which is what makes per-domain order streams
/// replayable at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainPlan {
    domains: u32,
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
    /// site falls back to the mixed-hash partition.
    #[must_use]
    pub fn new(domains: u32) -> DomainPlan {
        DomainPlan {
            domains: domains.max(1),
            assign: Box::default(),
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

    /// Whether the plan pins no sites (pure hash fallback).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.assign.is_empty()
    }

    /// The domain of `site`: the explicit assignment when pinned, the
    /// mixed-hash fallback otherwise.
    #[inline]
    #[must_use]
    pub fn domain_of(&self, site: SiteId) -> u32 {
        if self.domains <= 1 {
            return 0;
        }
        match self.position(site) {
            Ok(i) => self.assign[i].1,
            Err(_) => Self::hashed_fallback(self.domains, site),
        }
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

    /// The legacy plan-less partition (`raw % D`) used by PR 3 recordings
    /// and by sessions configured with a bare domain count. Kept distinct
    /// from [`DomainPlan::hashed_fallback`] so old traces replay with the
    /// partition they were recorded under.
    #[inline]
    #[must_use]
    pub fn legacy_modulo(domains: u32, site: SiteId) -> u32 {
        if domains <= 1 {
            0
        } else {
            (site.raw() % u64::from(domains)) as u32
        }
    }

    /// Explicit assignments sorted by raw site id — the deterministic
    /// iteration order the codec serializes.
    #[must_use]
    pub fn sorted_assignments(&self) -> Vec<(u64, u32)> {
        self.assign.to_vec()
    }

    /// Iterate the explicit assignments, sorted by raw site id.
    pub fn iter(&self) -> impl Iterator<Item = (SiteId, u32)> + '_ {
        self.assign.iter().map(|&(s, d)| (SiteId(s), d))
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
        let mut legacy = vec![0u32; domains as usize];
        for i in 0..4096u64 {
            legacy[DomainPlan::legacy_modulo(domains, SiteId(i * 4)) as usize] += 1;
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
        assert_eq!(plan.iter().count(), 3);
    }
}
