//! The access history a divergence report carries.
//!
//! §IV-D: *"To compute `X_C`, DE recording needs to keep the access history.
//! We use a long-enough ring buffer so that the old access can automatically
//! be discarded."*
//!
//! The run-tracking in [`crate::epoch`] computes epochs exactly from O(1)
//! state, so recording keeps no history at all, and neither does replay:
//! every access a domain admitted is a record of the trace below a replay
//! cursor — a thread's own cursor (DC/DE) or the shared stream's position
//! (ST) — so a divergence report reads the domain's last N admissions back
//! from the trace and `newest_first` merges them. The tests keep the
//! paper-faithful backward-looking `X_C` lookup over such a window, which
//! cross-checks the run-based epochs.

use crate::site::{AccessKind, SiteId};

/// One entry of the access history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessRecord {
    /// Global logical clock at which the access was recorded.
    pub clock: u64,
    /// Site accessed.
    pub site: SiteId,
    /// Load/store/… kind.
    pub kind: AccessKind,
    /// Thread that performed the access.
    pub thread: u32,
}

/// The newest `capacity` of `records`, newest first: ordered by recorded
/// position — stream index (ST), clock (DC) or epoch (DE) — with ties
/// broken by thread. The sort is stable, so a thread's equal-epoch DE
/// entries keep the order they came in (newest first, as each lane yields
/// them). The last N accesses of a domain are among the union of each
/// thread's last N, so merging per-thread windows loses none of them.
pub(crate) fn newest_first(mut records: Vec<AccessRecord>, capacity: usize) -> Vec<AccessRecord> {
    records.sort_by(|a, b| b.clock.cmp(&a.clock).then(a.thread.cmp(&b.thread)));
    records.truncate(capacity);
    records
}

/// Paper-faithful `X_C` computation by history lookup (§IV-D) over
/// `recent`, a newest-first window of at most `capacity` accesses: the
/// number of *consecutive* immediately-preceding accesses that the
/// incoming `(site, kind)` access could be grouped with.
///
/// * For an incoming **load**: count the run of trailing loads to the
///   same site (condition (i) of Condition 1).
/// * For an incoming **store**: count the run of trailing stores to the
///   same site (condition (ii) — validity of the grouping additionally
///   depends on the *next* access, which this backward-looking helper
///   cannot know; the epoch tracker handles that with deferral).
/// * Non-eligible kinds always get `X_C = 0`.
///
/// Returns `None` when the run fills the whole window, i.e. the buffer
/// was not "long enough" and the result would be a lower bound rather
/// than the true value.
#[cfg(test)]
pub(crate) fn lookup_xc(
    recent: &[AccessRecord],
    capacity: usize,
    site: SiteId,
    kind: AccessKind,
) -> Option<u64> {
    if !kind.is_epoch_eligible() {
        return Some(0);
    }
    let xc = recent
        .iter()
        .take_while(|rec| rec.site == site && rec.kind == kind)
        .count();
    if xc == recent.len() && xc == capacity && xc > 0 {
        // Every retained record matched: the run may continue past the
        // evicted horizon.
        None
    } else {
        Some(xc as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(clock: u64, site: u64, kind: AccessKind) -> AccessRecord {
        AccessRecord {
            clock,
            site: SiteId(site),
            kind,
            thread: 0,
        }
    }

    /// `recorded`'s newest-first window of `capacity`.
    fn window(recorded: &[AccessRecord], capacity: usize) -> Vec<AccessRecord> {
        newest_first(recorded.to_vec(), capacity)
    }

    #[test]
    fn push_and_recent_before_wrap() {
        let recorded = [rec(0, 1, AccessKind::Load), rec(1, 1, AccessKind::Load)];
        let clocks: Vec<u64> = window(&recorded, 4).iter().map(|a| a.clock).collect();
        assert_eq!(clocks, vec![1, 0]);
    }

    #[test]
    fn wraps_and_discards_oldest() {
        let recorded: Vec<_> = (0..7).map(|c| rec(c, 1, AccessKind::Load)).collect();
        let recents: Vec<u64> = window(&recorded, 3).iter().map(|a| a.clock).collect();
        assert_eq!(recents, vec![6, 5, 4]);
    }

    #[test]
    fn zero_capacity_is_inert() {
        let recent = window(&[rec(0, 1, AccessKind::Load)], 0);
        assert!(recent.is_empty());
        assert_eq!(lookup_xc(&recent, 0, SiteId(1), AccessKind::Load), Some(0));
    }

    #[test]
    fn merge_breaks_equal_positions_by_thread_and_keeps_lane_order() {
        // Two lanes of one DE epoch, each newest first: thread 0's two
        // accesses come before thread 1's, in the order the lane gave them.
        let at = |clock, site, thread| AccessRecord {
            thread,
            ..rec(clock, site, AccessKind::Load)
        };
        let lanes = vec![
            at(3, 0xb, 1),
            at(3, 0xa, 1),
            at(3, 0xd, 0),
            at(3, 0xc, 0),
            at(4, 0xe, 1),
        ];
        let sites: Vec<u64> = newest_first(lanes, 4)
            .iter()
            .map(|a| a.site.raw())
            .collect();
        assert_eq!(sites, vec![0xe, 0xd, 0xc, 0xb]);
    }

    #[test]
    fn xc_matches_table_v() {
        // Table V: loads by T1,T2,T3 then stores by T1,T2,T3 then load T1,
        // all to address X. X_C at each arrival:
        //   x0 L:0, x1 L:1, x2 L:2, x3 S:0, x4 S:1, x5 S:2(backward-looking),
        //   x6 L:0.
        // Note: the *recorded* X_C for x5 in Table V is 0, because the
        // grouping is invalidated by x6 being a load — that forward-looking
        // adjustment is the epoch tracker's deferral job, not the lookup's.
        let site = SiteId(0xa);
        let seq = [
            (AccessKind::Load, 0u64),
            (AccessKind::Load, 1),
            (AccessKind::Load, 2),
            (AccessKind::Store, 0),
            (AccessKind::Store, 1),
            (AccessKind::Store, 2),
            (AccessKind::Load, 0),
        ];
        let mut recorded = Vec::new();
        for (clock, (kind, expect_xc)) in seq.into_iter().enumerate() {
            let got = lookup_xc(&window(&recorded, 16), 16, site, kind).unwrap();
            assert_eq!(got, expect_xc, "at clock {clock}");
            recorded.push(rec(clock as u64, site.0, kind));
        }
    }

    #[test]
    fn xc_breaks_on_other_site() {
        let recorded = [rec(0, 1, AccessKind::Load), rec(1, 2, AccessKind::Load)];
        let recent = window(&recorded, 8);
        assert_eq!(lookup_xc(&recent, 8, SiteId(1), AccessKind::Load), Some(0));
        assert_eq!(lookup_xc(&recent, 8, SiteId(2), AccessKind::Load), Some(1));
    }

    #[test]
    fn xc_breaks_on_kind_change() {
        let recorded = [rec(0, 1, AccessKind::Store), rec(1, 1, AccessKind::Store)];
        let recent = window(&recorded, 8);
        assert_eq!(lookup_xc(&recent, 8, SiteId(1), AccessKind::Load), Some(0));
        assert_eq!(lookup_xc(&recent, 8, SiteId(1), AccessKind::Store), Some(2));
    }

    #[test]
    fn xc_reports_truncation_when_ring_too_short() {
        let recorded: Vec<_> = (0..5).map(|c| rec(c, 1, AccessKind::Load)).collect();
        // All retained records match: true X_C is 5 but a window of 2 can
        // only prove >= 2, so it reports None ("not long enough", §IV-D).
        assert_eq!(
            lookup_xc(&window(&recorded, 2), 2, SiteId(1), AccessKind::Load),
            None
        );
    }

    #[test]
    fn ineligible_kinds_always_zero() {
        let recorded = [
            rec(0, 1, AccessKind::Critical),
            rec(1, 1, AccessKind::Critical),
        ];
        let recent = window(&recorded, 4);
        assert_eq!(
            lookup_xc(&recent, 4, SiteId(1), AccessKind::Critical),
            Some(0)
        );
    }
}
