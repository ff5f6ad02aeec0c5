//! Race reports: the equivalent of the TSan report file of toolflow step (1).

use reomp_core::SiteId;
use std::collections::HashSet;
use std::fmt;

/// Which side of a racing pair an access was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessSide {
    /// The access read the location.
    Read,
    /// The access wrote the location.
    Write,
}

impl fmt::Display for AccessSide {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessSide::Read => "read",
            AccessSide::Write => "write",
        })
    }
}

/// One detected race: a pair of conflicting, unsynchronized accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceInfo {
    /// The memory cell involved.
    pub addr: u64,
    /// Site of the earlier access.
    pub first_site: SiteId,
    /// Side of the earlier access.
    pub first_side: AccessSide,
    /// Thread of the earlier access.
    pub first_tid: u32,
    /// Site of the later access.
    pub second_site: SiteId,
    /// Side of the later access.
    pub second_side: AccessSide,
    /// Thread of the later access.
    pub second_tid: u32,
}

/// The full report of a detection run.
#[derive(Debug, Clone, Default)]
pub struct RaceReport {
    /// Every detected race pair, in detection order (may contain repeats on
    /// the same sites from different dynamic instances).
    pub races: Vec<RaceInfo>,
    /// Number of memory events analysed.
    pub events_analysed: u64,
}

impl RaceReport {
    /// The set of sites involved in any race — the paper's "data race
    /// instances" whose hashes become thread-lock IDs (§III).
    #[must_use]
    pub fn racy_sites(&self) -> HashSet<SiteId> {
        let mut sites = HashSet::new();
        for r in &self.races {
            sites.insert(r.first_site);
            sites.insert(r.second_site);
        }
        // Site 0 is the "unknown prior access" placeholder, never a real
        // instrumentation target.
        sites.remove(&SiteId(0));
        sites
    }

    /// Distinct racy memory cells.
    #[must_use]
    pub fn racy_addrs(&self) -> HashSet<u64> {
        self.races.iter().map(|r| r.addr).collect()
    }

    /// Whether no races were found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.races.is_empty()
    }
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "race report: {} race(s) over {} event(s), {} site(s), {} cell(s)",
            self.races.len(),
            self.events_analysed,
            self.racy_sites().len(),
            self.racy_addrs().len()
        )?;
        for (i, r) in self.races.iter().enumerate() {
            writeln!(
                f,
                "  #{i}: {} by T{} at {} races with {} by T{} at {} (cell {:#x})",
                r.first_side,
                r.first_tid,
                r.first_site,
                r.second_side,
                r.second_tid,
                r.second_site,
                r.addr
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn racy_sites_collects_both_sides_and_drops_placeholder() {
        let report = RaceReport {
            races: vec![race(1, 2, 10), race(0, 3, 11)],
            events_analysed: 42,
        };
        let sites = report.racy_sites();
        assert!(sites.contains(&SiteId(1)));
        assert!(sites.contains(&SiteId(2)));
        assert!(sites.contains(&SiteId(3)));
        assert!(!sites.contains(&SiteId(0)));
        assert_eq!(report.racy_addrs().len(), 2);
        assert!(!report.is_clean());
    }

    #[test]
    fn display_renders_each_race() {
        let report = RaceReport {
            races: vec![race(1, 2, 10)],
            events_analysed: 1,
        };
        let text = report.to_string();
        assert!(text.contains("1 race(s)"));
        assert!(text.contains("T0"));
        assert!(text.contains("T1"));
    }
}
