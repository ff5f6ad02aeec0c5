//! Epoch assignment for DE recording (paper §IV-D, Table V).
//!
//! Concurrency note: the tracker is pure data mutated only under the
//! domain's record admission — for DE always a served
//! [`TicketGate`](crate::clock::TicketGate) ticket — so it needs no
//! `crate::shim` seam: the model checker exercises it through the gate
//! engines, where the ticket gate's words are the scheduling points.
//!
//! # The rule
//!
//! Every gated access receives a global clock `c`. DE recording writes
//! `epoch = c − X_C`, where `X_C` is the length of the *run* of immediately
//! preceding accesses the new access may be freely reordered with under
//! Condition 1:
//!
//! * **(i)** consecutive **loads** of the same site commute — a load's
//!   epoch is the clock of the first load of its run;
//! * **(ii)** consecutive **stores** of the same site commute *except the
//!   last one before a non-store*, because the last store determines the
//!   value subsequent loads must observe. Table V encodes this by setting
//!   `X_C = 0` for the final store of a run (`x5` gets epoch 5, not 3).
//!
//! Whether a store is "final" depends on the **next** access, which has not
//! happened yet when the store is recorded. The tracker therefore answers
//! in two steps. [`EpochTracker::observe`] returns the value the gating
//! thread appends to *its own* record lane right away — a load's run
//! epoch, and for a store its own clock, which is what the store ends up
//! with unless it turns out to be a non-first, non-final member of a store
//! run. The store stays *pending* inside the tracker (all of this runs
//! under the gate exclusion, so there is no race), and only when the next
//! access proves it was such a member does the tracker emit a [`Fixup`]
//! `(thread, clock → run start)`, which the gate posts to the owner's
//! mailbox; the owner rewrites the one entry before it flushes. A store
//! still pending at the end of the run already carries its final value.
//!
//! # Run-boundary policies and replay safety
//!
//! [`EpochPolicy::Contiguous`] (default) ends a run whenever an access to a
//! *different* site (or of a different kind) intervenes, even though
//! Condition 1 is stated per-address. This buys a safety proof:
//!
//! > **Claim.** Under `Contiguous`, epoch values are non-decreasing in
//! > clock order, and the DE replay rule — admit an access with epoch `e`
//! > once `next_clock ≥ e`, increment `next_clock` at completion — ensures
//! > an access with epoch `e` starts only after *all* accesses with clock
//! > `< e` completed.
//! >
//! > *Proof sketch.* Runs partition the clock sequence into contiguous
//! > blocks `[r, s]`. Loads in a block all carry epoch `r`; stores carry
//! > `r` except the last, which carries its own clock `s`. Hence the epoch
//! > sequence is non-decreasing, and any access with clock ≥ e has epoch
//! > ≥ e′ where e′ is its block's start > previous block's end. When
//! > `next_clock = e`, exactly `e` accesses completed, and only accesses
//! > with epoch ≤ e — all of which have clock < e or are block-mates that
//! > commute with the waiter by Condition 1 — can have been admitted. ∎
//!
//! [`EpochPolicy::PerAddress`] follows the paper's per-address wording
//! literally: a run survives interleaved accesses to other sites. Epochs
//! then are *not* monotone, and the final store of a run can be admitted
//! while an earlier same-site store is still pending, which can mis-replay
//! the final value (demonstrated by `tests/epoch_policy_hazard.rs` in the
//! workspace root). It remains deadlock-free — every access has
//! `epoch ≤ clock`, so the pending access with the smallest clock is always
//! admissible — and yields strictly larger epochs, so it is offered as an
//! opt-in relaxation and an ablation point.

use crate::site::{AccessKind, SiteId};
use std::collections::HashMap;

/// How run boundaries are determined when computing `X_C`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EpochPolicy {
    /// Runs are maximal *globally consecutive* same-site same-kind access
    /// sequences. Replay-safe (see module docs); the default.
    #[default]
    Contiguous,
    /// Runs are per-address and survive interleaved accesses to *other*
    /// addresses — the paper-literal reading of Condition 1. Larger
    /// epochs, weaker replay-fidelity guarantee.
    PerAddress,
}

impl EpochPolicy {
    /// Parse from the `REOMP_EPOCH_POLICY` environment value.
    #[must_use]
    pub fn from_str_opt(s: &str) -> Option<EpochPolicy> {
        match s.to_ascii_lowercase().as_str() {
            "contiguous" => Some(EpochPolicy::Contiguous),
            "per-address" | "peraddress" | "per_address" | "per-site" | "persite" => {
                Some(EpochPolicy::PerAddress)
            }
            _ => None,
        }
    }

    /// Stable name used in manifests.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EpochPolicy::Contiguous => "contiguous",
            EpochPolicy::PerAddress => "per-address",
        }
    }
}

/// A correction to a store record its owner already wrote: the store at
/// `clock` in thread `thread`'s record file carries `epoch`, not its own
/// clock (Table V's `x4`: a store followed by another same-site store,
/// and not the first of its run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fixup {
    /// Owning thread (whose record file holds the entry).
    pub thread: u32,
    /// Global clock of the store being corrected.
    pub clock: u64,
    /// Its final epoch: the start of its run, `< clock`.
    pub epoch: u64,
}

#[derive(Debug, Clone, Copy)]
struct Run {
    kind: AccessKind,
    start: u64,
}

/// A store whose successor has not been seen yet.
#[derive(Debug, Clone, Copy)]
struct Pending {
    thread: u32,
    clock: u64,
    run_start: u64,
}

impl Pending {
    /// Resolve against the next access on the address: only a store that
    /// is followed by a run-mate *and* is not the run's first keeps the
    /// run epoch; every other outcome is the provisional `epoch == clock`.
    fn resolve(self, joins: bool) -> Option<Fixup> {
        (joins && self.run_start != self.clock).then_some(Fixup {
            thread: self.thread,
            clock: self.clock,
            epoch: self.run_start,
        })
    }
}

/// Streaming epoch assigner. One per gate domain; all calls happen under
/// the domain's gate exclusion, in clock order.
#[derive(Debug)]
pub struct EpochTracker {
    policy: EpochPolicy,
    /// Contiguous-policy state: the single current run (with its address)
    /// and pending store.
    cur: Option<(u64, Run)>,
    pending: Option<Pending>,
    /// PerAddress-policy state.
    addr_runs: HashMap<u64, Run>,
    addr_pending: HashMap<u64, Pending>,
}

/// Result of observing one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observed {
    /// What the access's own record carries: the run epoch for a load,
    /// the access's clock for every other kind (for a store provisionally
    /// — see [`Observed::fixup`]).
    pub value: u64,
    /// Set when this access proves that an earlier pending store (possibly
    /// another thread's) keeps its run's epoch instead of its own clock.
    pub fixup: Option<Fixup>,
}

impl EpochTracker {
    /// New tracker with the given policy. The second argument was the
    /// capacity of a record-side audit ring nothing read; it is ignored
    /// and kept only so existing callers compile.
    #[must_use]
    pub fn new(policy: EpochPolicy, _ring_capacity: usize) -> Self {
        EpochTracker {
            policy,
            cur: None,
            pending: None,
            addr_runs: HashMap::new(),
            addr_pending: HashMap::new(),
        }
    }

    /// Smallest clock of any store still pending inside the tracker, or
    /// `None` when no observed access can still receive a [`Fixup`].
    /// Record sessions read it after every access as the lane flush
    /// floor: records with clocks below it are final in their owners'
    /// lanes once the fix-ups posted so far are applied.
    #[must_use]
    pub fn min_pending_clock(&self) -> Option<u64> {
        match self.policy {
            EpochPolicy::Contiguous => self.pending.map(|p| p.clock),
            EpochPolicy::PerAddress => self.addr_pending.values().map(|p| p.clock).min(),
        }
    }

    /// Observe the access with the given (already assigned) clock. Must be
    /// called in strictly increasing clock order. `addr` identifies the
    /// memory location (Condition 1 is per-address); gates without a
    /// distinct address pass the site hash. `site` is accepted for the
    /// callers that have it at hand; grouping is by `addr` alone.
    pub fn observe(
        &mut self,
        thread: u32,
        _site: SiteId,
        addr: u64,
        kind: AccessKind,
        clock: u64,
    ) -> Observed {
        let eligible = kind.is_epoch_eligible();
        // The pending store this access resolves, whether the access
        // continues its run, and the run the access itself belongs to.
        let (prior, joins, run_start) = match self.policy {
            EpochPolicy::Contiguous => {
                let joined = self
                    .cur
                    .filter(|&(a, r)| a == addr && r.kind == kind && eligible);
                if joined.is_none() {
                    self.cur = eligible.then_some((addr, Run { kind, start: clock }));
                }
                // Any access ends the deferral of the one pending store:
                // a different site or kind breaks the run (condition (ii)
                // is violated at the boundary — Table V's "we set X_C to 0
                // when a store is followed by a load").
                let start = joined.map_or(clock, |(_, r)| r.start);
                (self.pending.take(), joined.is_some(), start)
            }
            EpochPolicy::PerAddress => {
                let joined = self
                    .addr_runs
                    .get(&addr)
                    .copied()
                    .filter(|r| r.kind == kind && eligible);
                if joined.is_none() {
                    if eligible {
                        self.addr_runs.insert(addr, Run { kind, start: clock });
                    } else {
                        self.addr_runs.remove(&addr);
                    }
                }
                // Only a pending store *on this address* is affected;
                // pending stores on other addresses stay pending.
                let start = joined.map_or(clock, |r| r.start);
                (self.addr_pending.remove(&addr), joined.is_some(), start)
            }
        };
        if kind == AccessKind::Store {
            let pending = Pending {
                thread,
                clock,
                run_start,
            };
            match self.policy {
                EpochPolicy::Contiguous => self.pending = Some(pending),
                EpochPolicy::PerAddress => {
                    self.addr_pending.insert(addr, pending);
                }
            }
        }
        Observed {
            // Non-eligible kinds serialize (their run was reset above, so
            // `run_start == clock`); a store's own clock is provisional.
            value: if kind == AccessKind::Load {
                run_start
            } else {
                clock
            },
            fixup: prior.and_then(|p| p.resolve(joins)),
        }
    }

    /// Forget all run state (end of recording, or a mid-run flight dump).
    /// A store still pending has no successor, so grouping it is never
    /// justified: it keeps its own clock — the value its owner already
    /// wrote — and no later access can post a fix-up for it.
    pub fn flush(&mut self) {
        self.cur = None;
        self.pending = None;
        self.addr_runs.clear();
        self.addr_pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{AccessRecord, HistoryRing};

    const X: SiteId = SiteId(0xaaaa);
    const Y: SiteId = SiteId(0xbbbb);

    /// Drive a tracker over `(thread, site, kind)` accesses with clocks
    /// 0,1,2,… and return every access's final epoch, indexed by clock —
    /// assembled the way a session does it: the observed value first, a
    /// later fix-up rewriting it. The site hash doubles as the address,
    /// like plain `ThreadCtx::gate`.
    fn run(policy: EpochPolicy, seq: &[(u32, SiteId, AccessKind)]) -> Vec<u64> {
        let mut t = EpochTracker::new(policy, 64);
        let mut epochs: Vec<u64> = Vec::new();
        for (clock, &(thread, site, kind)) in seq.iter().enumerate() {
            let obs = t.observe(thread, site, site.raw(), kind, clock as u64);
            if let Some(f) = obs.fixup {
                let (owner, _, fixed_kind) = seq[f.clock as usize];
                assert_eq!(f.thread, owner, "fix-up addressed to the store's owner");
                assert_eq!(fixed_kind, AccessKind::Store, "only stores are fixed up");
                assert!(f.epoch < f.clock, "a fix-up always lowers: {f:?}");
                assert_eq!(
                    epochs[f.clock as usize], f.clock,
                    "{f:?} hits a provisional value"
                );
                epochs[f.clock as usize] = f.epoch;
            }
            epochs.push(obs.value);
        }
        t.flush();
        assert_eq!(t.min_pending_clock(), None);
        epochs
    }

    #[test]
    fn table_v_exact_reproduction() {
        use AccessKind::{Load, Store};
        // x0..x6 of Table V: L L L S S S L, threads T1 T2 T3 T1 T2 T3 T1.
        let seq = [
            (1, X, Load),
            (2, X, Load),
            (3, X, Load),
            (1, X, Store),
            (2, X, Store),
            (3, X, Store),
            (1, X, Load),
        ];
        let epochs = run(EpochPolicy::Contiguous, &seq);
        assert_eq!(epochs, vec![0, 0, 0, 3, 3, 5, 6], "Table V column (3)");
        let xcs: Vec<u64> = (0u64..).zip(&epochs).map(|(c, e)| c - e).collect();
        assert_eq!(xcs, vec![0, 1, 2, 0, 1, 0, 0], "Table V column (2)");
        // Same address, so PerSite agrees.
        assert_eq!(run(EpochPolicy::PerAddress, &seq), epochs);
    }

    #[test]
    fn only_a_non_first_non_final_run_store_is_fixed_up() {
        use AccessKind::{Load, Store};
        // Table V's stores: x3 (first of the run) and x5 (final) keep
        // their provisional clocks; x4 alone needs a fix-up, and it is
        // x5 — another thread's access — that emits it.
        let mut t = EpochTracker::new(EpochPolicy::Contiguous, 0);
        let mut fixups = Vec::new();
        for (clock, (thread, kind)) in [(1, Store), (2, Store), (3, Store), (1, Load)]
            .into_iter()
            .enumerate()
        {
            let obs = t.observe(thread, X, X.raw(), kind, 3 + clock as u64);
            fixups.extend(obs.fixup.map(|f| (3 + clock as u64, f)));
        }
        assert_eq!(
            fixups,
            vec![(
                5,
                Fixup {
                    thread: 2,
                    clock: 4,
                    epoch: 3
                }
            )]
        );
    }

    #[test]
    fn epoch_never_exceeds_clock() {
        use AccessKind::{Load, Store};
        let seq: Vec<(u32, SiteId, AccessKind)> = (0..200)
            .map(|i| {
                let kind = if (i / 5) % 2 == 0 { Load } else { Store };
                (0, if i % 2 == 0 { X } else { Y }, kind)
            })
            .collect();
        for policy in [EpochPolicy::Contiguous, EpochPolicy::PerAddress] {
            for (clock, epoch) in (0u64..).zip(run(policy, &seq)) {
                assert!(epoch <= clock, "{policy:?}: epoch {epoch} at clock {clock}");
            }
        }
    }

    #[test]
    fn contiguous_epochs_are_monotone() {
        use AccessKind::{Load, Store};
        // Adversarial interleaving across two sites.
        let seq = [
            (0, X, Load),
            (1, Y, Store),
            (2, X, Load),
            (0, X, Store),
            (1, X, Store),
            (2, Y, Load),
            (0, X, Store),
            (1, X, Load),
        ];
        let got = run(EpochPolicy::Contiguous, &seq);
        assert!(
            got.windows(2).all(|w| w[0] <= w[1]),
            "not monotone: {got:?}"
        );
    }

    #[test]
    fn per_address_keeps_runs_alive_across_other_addresses() {
        use AccessKind::Load;
        // X-load, Y-load, X-load: PerAddress groups the two X loads (epoch 0),
        // Contiguous does not (second X load starts a new run at clock 2).
        let seq = [(0, X, Load), (1, Y, Load), (2, X, Load)];
        assert_eq!(run(EpochPolicy::Contiguous, &seq), vec![0, 1, 2]);
        assert_eq!(run(EpochPolicy::PerAddress, &seq), vec![0, 1, 0]);
    }

    #[test]
    fn per_address_fixups_may_arrive_out_of_clock_order() {
        use AccessKind::Store;
        // Two interleaved store runs: Y's middle store (clock 3) is fixed
        // up before X's (clock 2) — a lane cannot assume its mailbox is
        // sorted by target clock.
        let seq = [
            (0, X, Store),
            (0, Y, Store),
            (0, X, Store),
            (0, Y, Store),
            (1, Y, Store),
            (1, X, Store),
        ];
        assert_eq!(run(EpochPolicy::PerAddress, &seq), vec![0, 1, 0, 1, 4, 5]);
    }

    #[test]
    fn store_run_interrupted_by_other_address_is_serialized_under_contiguous() {
        use AccessKind::{Load, Store};
        let seq = [(0, X, Store), (1, Y, Load), (2, X, Store)];
        // The first X store keeps its own clock (run broken by Y), and so
        // does the trailing one.
        assert_eq!(run(EpochPolicy::Contiguous, &seq), vec![0, 1, 2]);
    }

    #[test]
    fn trailing_store_keeps_its_own_clock() {
        use AccessKind::Store;
        let seq = [(0, X, Store), (1, X, Store), (2, X, Store)];
        for policy in [EpochPolicy::Contiguous, EpochPolicy::PerAddress] {
            // First two share the run epoch; the last has no successor.
            assert_eq!(run(policy, &seq), vec![0, 0, 2]);
        }
    }

    #[test]
    fn ineligible_kinds_serialize_and_break_runs() {
        use AccessKind::{Critical, Load};
        let seq = [(0, X, Load), (1, X, Critical), (2, X, Load)];
        for policy in [EpochPolicy::Contiguous, EpochPolicy::PerAddress] {
            assert_eq!(run(policy, &seq), vec![0, 1, 2]);
        }
    }

    #[test]
    fn pure_load_run_shares_one_epoch() {
        use AccessKind::Load;
        let seq: Vec<_> = (0..50u32).map(|t| (t, X, Load)).collect();
        for policy in [EpochPolicy::Contiguous, EpochPolicy::PerAddress] {
            assert!(run(policy, &seq).iter().all(|&e| e == 0), "{policy:?}");
        }
    }

    #[test]
    fn run_based_epochs_match_ring_xc_audit_for_single_site() {
        use AccessKind::{Load, Store};
        // For a single hot site and a long-enough ring, the run-based epoch
        // must equal clock - lookup_xc for loads (the backward-looking X_C
        // is exact for loads).
        let mut t = EpochTracker::new(EpochPolicy::Contiguous, 128);
        let audit = HistoryRing::new(128);
        let pattern = [Load, Load, Store, Store, Store, Load, Store, Load, Load];
        let mut clock = 0u64;
        for _ in 0..6 {
            for &kind in &pattern {
                let xc = audit.lookup_xc(X, kind).expect("ring long enough");
                let obs = t.observe(0, X, X.raw(), kind, clock);
                if kind == Load {
                    assert_eq!(obs.value, clock - xc, "load at clock {clock}");
                } else if let Some(f) = obs.fixup {
                    // The store before this one was neither first nor last
                    // of its run: its backward-looking X_C stands.
                    assert_eq!((f.clock, f.epoch), (clock - 1, clock - xc));
                }
                audit.push(AccessRecord {
                    clock,
                    site: X,
                    kind,
                    thread: 0,
                });
                clock += 1;
            }
        }
    }

    #[test]
    fn min_pending_clock_tracks_outstanding_stores() {
        use AccessKind::{Load, Store};
        let mut t = EpochTracker::new(EpochPolicy::Contiguous, 16);
        assert_eq!(t.min_pending_clock(), None);
        t.observe(0, X, X.raw(), Load, 0);
        assert_eq!(t.min_pending_clock(), None, "loads are final at once");
        t.observe(0, X, X.raw(), Store, 1);
        assert_eq!(t.min_pending_clock(), Some(1), "store goes pending");
        t.observe(1, X, X.raw(), Store, 2);
        assert_eq!(t.min_pending_clock(), Some(2), "previous store resolved");
        t.flush();
        assert_eq!(t.min_pending_clock(), None);

        // PerAddress: pendings on several addresses, minimum wins.
        let mut t = EpochTracker::new(EpochPolicy::PerAddress, 16);
        t.observe(0, X, X.raw(), Store, 0);
        t.observe(1, Y, Y.raw(), Store, 1);
        assert_eq!(t.min_pending_clock(), Some(0));
        t.observe(0, X, X.raw(), Load, 2); // resolves the X store
        assert_eq!(t.min_pending_clock(), Some(1));
    }

    #[test]
    fn policy_parsing() {
        assert_eq!(
            EpochPolicy::from_str_opt("contiguous"),
            Some(EpochPolicy::Contiguous)
        );
        assert_eq!(
            EpochPolicy::from_str_opt("per-address"),
            Some(EpochPolicy::PerAddress)
        );
        assert_eq!(
            EpochPolicy::from_str_opt("per-site"),
            Some(EpochPolicy::PerAddress),
            "legacy spelling accepted"
        );
        assert_eq!(EpochPolicy::from_str_opt("bogus"), None);
        assert_eq!(EpochPolicy::Contiguous.name(), "contiguous");
        assert_eq!(EpochPolicy::PerAddress.name(), "per-address");
    }
}
