//! A fixed-capacity ring of the most recent accesses.
//!
//! §IV-D: *"To compute `X_C`, DE recording needs to keep the access history.
//! We use a long-enough ring buffer so that the old access can automatically
//! be discarded."*
//!
//! The run-tracking in [`crate::epoch`] computes epochs exactly from O(1)
//! state, so recording keeps no ring at all. The type has two users:
//! replay, where every domain keeps the last N accesses it admitted and
//! attaches them to a divergence report, and the tests, which cross-check
//! the run-based epochs against the paper-faithful backward-looking
//! [`HistoryRing::lookup_xc`].

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

/// Fixed-capacity ring buffer of the most recent accesses.
#[derive(Debug, Clone)]
pub struct HistoryRing {
    buf: Vec<AccessRecord>,
    head: usize,
    len: usize,
}

impl HistoryRing {
    /// Ring holding up to `capacity` records (capacity 0 disables history).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        HistoryRing {
            buf: Vec::with_capacity(capacity),
            head: 0,
            len: 0,
        }
    }

    /// Maximum number of records retained.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Current number of records retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no records are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a record, discarding the oldest if full.
    pub fn push(&mut self, rec: AccessRecord) {
        if self.buf.capacity() == 0 {
            return;
        }
        if self.buf.len() < self.buf.capacity() {
            self.buf.push(rec);
            self.len = self.buf.len();
        } else {
            self.buf[self.head] = rec;
            // A compare, not `% len`: this runs in every replay gate.
            self.head += 1;
            if self.head == self.buf.len() {
                self.head = 0;
            }
        }
    }

    /// The `i`-th most recent record (0 = newest). `None` if evicted or
    /// never recorded.
    #[must_use]
    pub fn recent(&self, i: usize) -> Option<&AccessRecord> {
        if i >= self.len {
            return None;
        }
        if self.buf.len() < self.buf.capacity() {
            // Not yet wrapped: newest is at the end.
            self.buf.get(self.len - 1 - i)
        } else {
            let newest = (self.head + self.buf.len() - 1) % self.buf.len();
            let idx = (newest + self.buf.len() - i) % self.buf.len();
            self.buf.get(idx)
        }
    }

    /// Iterate newest-first.
    pub fn iter_recent(&self) -> impl Iterator<Item = &AccessRecord> {
        (0..self.len).filter_map(move |i| self.recent(i))
    }

    /// Paper-faithful `X_C` computation by history lookup (§IV-D): the
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
    /// Returns `None` when the run extends beyond the ring capacity, i.e.
    /// the buffer was not "long enough" and the result would be a lower
    /// bound rather than the true value.
    #[must_use]
    pub fn lookup_xc(&self, site: SiteId, kind: AccessKind) -> Option<u64> {
        if !kind.is_epoch_eligible() {
            return Some(0);
        }
        let mut xc = 0u64;
        for i in 0..self.len {
            let rec = self.recent(i).expect("index < len");
            if rec.site == site && rec.kind == kind {
                xc += 1;
            } else {
                return Some(xc);
            }
        }
        if (self.len as u64) == xc && self.len == self.capacity() && self.capacity() > 0 {
            // Every retained record matched: the run may continue past the
            // evicted horizon.
            None
        } else {
            Some(xc)
        }
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

    #[test]
    fn push_and_recent_before_wrap() {
        let mut r = HistoryRing::new(4);
        assert!(r.is_empty());
        r.push(rec(0, 1, AccessKind::Load));
        r.push(rec(1, 1, AccessKind::Load));
        assert_eq!(r.len(), 2);
        assert_eq!(r.recent(0).unwrap().clock, 1);
        assert_eq!(r.recent(1).unwrap().clock, 0);
        assert!(r.recent(2).is_none());
    }

    #[test]
    fn wraps_and_discards_oldest() {
        let mut r = HistoryRing::new(3);
        for c in 0..7 {
            r.push(rec(c, 1, AccessKind::Load));
        }
        assert_eq!(r.len(), 3);
        let recents: Vec<u64> = r.iter_recent().map(|a| a.clock).collect();
        assert_eq!(recents, vec![6, 5, 4]);
    }

    #[test]
    fn zero_capacity_is_inert() {
        let mut r = HistoryRing::new(0);
        r.push(rec(0, 1, AccessKind::Load));
        assert!(r.is_empty());
        assert_eq!(r.lookup_xc(SiteId(1), AccessKind::Load), Some(0));
    }

    #[test]
    fn xc_matches_table_v() {
        // Table V: loads by T1,T2,T3 then stores by T1,T2,T3 then load T1,
        // all to address X. X_C at each arrival:
        //   x0 L:0, x1 L:1, x2 L:2, x3 S:0, x4 S:1, x5 S:2(backward-looking),
        //   x6 L:0.
        // Note: the *recorded* X_C for x5 in Table V is 0, because the
        // grouping is invalidated by x6 being a load — that forward-looking
        // adjustment is the epoch tracker's deferral job, not the ring's.
        let mut r = HistoryRing::new(16);
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
        for (clock, (kind, expect_xc)) in seq.into_iter().enumerate() {
            let got = r.lookup_xc(site, kind).unwrap();
            assert_eq!(got, expect_xc, "at clock {clock}");
            r.push(rec(clock as u64, site.0, kind));
        }
    }

    #[test]
    fn xc_breaks_on_other_site() {
        let mut r = HistoryRing::new(8);
        r.push(rec(0, 1, AccessKind::Load));
        r.push(rec(1, 2, AccessKind::Load)); // different site
        assert_eq!(r.lookup_xc(SiteId(1), AccessKind::Load), Some(0));
        assert_eq!(r.lookup_xc(SiteId(2), AccessKind::Load), Some(1));
    }

    #[test]
    fn xc_breaks_on_kind_change() {
        let mut r = HistoryRing::new(8);
        r.push(rec(0, 1, AccessKind::Store));
        r.push(rec(1, 1, AccessKind::Store));
        assert_eq!(r.lookup_xc(SiteId(1), AccessKind::Load), Some(0));
        assert_eq!(r.lookup_xc(SiteId(1), AccessKind::Store), Some(2));
    }

    #[test]
    fn xc_reports_truncation_when_ring_too_short() {
        let mut r = HistoryRing::new(2);
        for c in 0..5 {
            r.push(rec(c, 1, AccessKind::Load));
        }
        // All retained records match: true X_C is 5 but the ring can only
        // prove >= 2, so it reports None ("not long enough", §IV-D).
        assert_eq!(r.lookup_xc(SiteId(1), AccessKind::Load), None);
    }

    #[test]
    fn ineligible_kinds_always_zero() {
        let mut r = HistoryRing::new(4);
        r.push(rec(0, 1, AccessKind::Critical));
        r.push(rec(1, 1, AccessKind::Critical));
        assert_eq!(r.lookup_xc(SiteId(1), AccessKind::Critical), Some(0));
    }
}
