//! A fixed-capacity ring of the most recent accesses.
//!
//! §IV-D: *"To compute `X_C`, DE recording needs to keep the access history.
//! We use a long-enough ring buffer so that the old access can automatically
//! be discarded."*
//!
//! The run-tracking in [`crate::epoch`] computes epochs exactly from O(1)
//! state, so recording keeps no ring at all. The type has two users:
//! replay, where every thread keeps the last N accesses it had admitted in
//! each domain — on a line only it writes — and a divergence report
//! merges the domain's rings into its last N, newest first; and the tests,
//! which cross-check the run-based epochs against the paper-faithful
//! backward-looking [`HistoryRing::lookup_xc`].
//!
//! # One writer, readers that do not stop it
//!
//! A replay gate pushes into its own ring on every admission, so the push
//! takes no lock and no locked instruction: the owner stores the entry's
//! three words into the next slot and then publishes a push count with a
//! Release store. A reader on another thread — the diverging thread that
//! builds the report — reads the count (Acquire), copies the last `N`
//! entries, reads the count again, and drops every copy the owner may
//! have overwritten meanwhile. The ring keeps one slot more than it
//! shows, so push `p` rewrites the slot of push `p - N - 1`: with `c`
//! pushes counted at the second read — and push `c` perhaps in flight —
//! the entries from push `c - N` on are intact, which on a quiet ring is
//! all `N` of them. The word stores are Release and the reader's word
//! loads Acquire (plain moves on x86), so a copy that saw any word of
//! push `p` is followed by a count read of at least `p`. Every entry
//! [`HistoryRing::snapshot`] returns was really pushed, newest first.

use crate::shim::atomic::{AtomicU64, AtomicUsize, Ordering};
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

/// One ring slot: `clock`, `site`, and `thread << 8 | kind`.
type Slot = [AtomicU64; 3];

/// Fixed-capacity ring of the most recent accesses, written by one thread
/// at a time and readable from any (see the module docs).
#[derive(Debug)]
pub struct HistoryRing {
    /// `capacity + 1` slots (none when the capacity is 0): the spare one
    /// is the slot a push in flight may be rewriting.
    slots: Box<[Slot]>,
    /// The slot the next push writes. Owner-only.
    head: AtomicUsize,
    /// Records pushed so far, published after each push's words.
    pushed: AtomicU64,
}

impl HistoryRing {
    /// Ring holding up to `capacity` records (capacity 0 disables history).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let slots = if capacity == 0 { 0 } else { capacity + 1 };
        HistoryRing {
            slots: (0..slots).map(|_| Slot::default()).collect(),
            head: AtomicUsize::new(0),
            pushed: AtomicU64::new(0),
        }
    }

    /// Maximum number of records retained.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len().saturating_sub(1)
    }

    /// Current number of records retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pushed
            .load(Ordering::Acquire)
            .min(self.capacity() as u64) as usize
    }

    /// Whether no records are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a record, discarding the oldest if full. Only one thread at
    /// a time may push (a replay lane's owner); no locked instruction.
    #[inline]
    pub fn push(&self, rec: AccessRecord) {
        let slots = self.slots.len();
        if slots == 0 {
            return;
        }
        // ORDERING: `head` and `pushed` are written by the pushing thread
        // alone, so its own Relaxed loads see its own last stores.
        let head = self.head.load(Ordering::Relaxed);
        let pushed = self.pushed.load(Ordering::Relaxed);
        // Release on the words: a reader whose Acquire load sees one of
        // them also sees the `pushed` store that preceded this push.
        let slot = &self.slots[head];
        slot[0].store(rec.clock, Ordering::Release);
        slot[1].store(rec.site.raw(), Ordering::Release);
        slot[2].store(
            u64::from(rec.thread) << 8 | u64::from(rec.kind.code()),
            Ordering::Release,
        );
        // A compare, not `% slots`: this runs in every replay gate.
        let next = if head + 1 == slots { 0 } else { head + 1 };
        // ORDERING: owner-only index, read back only by the owner.
        self.head.store(next, Ordering::Relaxed);
        self.pushed.store(pushed + 1, Ordering::Release);
    }

    /// The retained records, newest first — callable from any thread while
    /// the owner keeps pushing. Entries the owner overwrote during the copy
    /// are dropped from the old end, so the result may be shorter than
    /// [`HistoryRing::len`], but every entry in it was really pushed.
    #[must_use]
    pub fn snapshot(&self) -> Vec<AccessRecord> {
        let slots = self.slots.len() as u64;
        let end = self.pushed.load(Ordering::Acquire);
        let n = end.min(self.capacity() as u64);
        let words: Vec<[u64; 3]> = (end - n..end)
            .rev()
            .map(|k| {
                self.slots[(k % slots) as usize]
                    .each_ref()
                    .map(|w| w.load(Ordering::Acquire))
            })
            .collect();
        // Push `p` rewrites push `p - slots`'s slot; with `again` pushes
        // counted now and push `again` perhaps in flight, the entries from
        // push `again + 1 - slots` on are intact.
        let again = self.pushed.load(Ordering::Acquire);
        let first_intact = (again + 1).saturating_sub(slots);
        let keep = end.saturating_sub(first_intact).min(n) as usize;
        words[..keep]
            .iter()
            .map(|&[clock, site, tk]| AccessRecord {
                clock,
                site: SiteId(site),
                kind: AccessKind::from_code(tk as u8).expect("a pushed kind code"),
                thread: (tk >> 8) as u32,
            })
            .collect()
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
        let recent = self.snapshot();
        let xc = recent
            .iter()
            .take_while(|rec| rec.site == site && rec.kind == kind)
            .count();
        if xc == recent.len() && xc == self.capacity() && xc > 0 {
            // Every retained record matched: the run may continue past the
            // evicted horizon.
            None
        } else {
            Some(xc as u64)
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
        let r = HistoryRing::new(4);
        assert!(r.is_empty());
        r.push(rec(0, 1, AccessKind::Load));
        r.push(rec(1, 1, AccessKind::Load));
        assert_eq!(r.len(), 2);
        let clocks: Vec<u64> = r.snapshot().iter().map(|a| a.clock).collect();
        assert_eq!(clocks, vec![1, 0]);
    }

    #[test]
    fn wraps_and_discards_oldest() {
        let r = HistoryRing::new(3);
        for c in 0..7 {
            r.push(rec(c, 1, AccessKind::Load));
        }
        assert_eq!(r.len(), 3);
        let recents: Vec<u64> = r.snapshot().iter().map(|a| a.clock).collect();
        assert_eq!(recents, vec![6, 5, 4]);
    }

    #[test]
    fn zero_capacity_is_inert() {
        let r = HistoryRing::new(0);
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
        let r = HistoryRing::new(16);
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
        let r = HistoryRing::new(8);
        r.push(rec(0, 1, AccessKind::Load));
        r.push(rec(1, 2, AccessKind::Load)); // different site
        assert_eq!(r.lookup_xc(SiteId(1), AccessKind::Load), Some(0));
        assert_eq!(r.lookup_xc(SiteId(2), AccessKind::Load), Some(1));
    }

    #[test]
    fn xc_breaks_on_kind_change() {
        let r = HistoryRing::new(8);
        r.push(rec(0, 1, AccessKind::Store));
        r.push(rec(1, 1, AccessKind::Store));
        assert_eq!(r.lookup_xc(SiteId(1), AccessKind::Load), Some(0));
        assert_eq!(r.lookup_xc(SiteId(1), AccessKind::Store), Some(2));
    }

    #[test]
    fn xc_reports_truncation_when_ring_too_short() {
        let r = HistoryRing::new(2);
        for c in 0..5 {
            r.push(rec(c, 1, AccessKind::Load));
        }
        // All retained records match: true X_C is 5 but the ring can only
        // prove >= 2, so it reports None ("not long enough", §IV-D).
        assert_eq!(r.lookup_xc(SiteId(1), AccessKind::Load), None);
    }

    #[test]
    fn ineligible_kinds_always_zero() {
        let r = HistoryRing::new(4);
        r.push(rec(0, 1, AccessKind::Critical));
        r.push(rec(1, 1, AccessKind::Critical));
        assert_eq!(r.lookup_xc(SiteId(1), AccessKind::Critical), Some(0));
    }
}
