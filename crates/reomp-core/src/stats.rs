//! Runtime counters and post-hoc trace analysis.
//!
//! The counters quantify exactly the overhead sources the paper analyses in
//! §IV-C and Table VI: gate-lock acquisitions (serialized clock/thread-ID
//! assignment), inter-thread communications in replay (2 per region for ST,
//! 1 for DC/DE), waits and spin iterations, and trace I/O volume.
//! [`EpochHistogram`] reproduces the Fig. 20 analysis (number of occurrences
//! of each epoch size and the fraction of epochs with size > 1).
//!
//! # What a gate writes, and what is read back
//!
//! A gated access touches only the order — one clock and the thread's own
//! record file — so a gate writes no count the run holds elsewhere.
//! [`GateCounts`] reads `gates`, `gates_by_kind`, `records_written`,
//! `records_read`, `validate_checks`, the replay communication of each
//! admitted gate and the per-domain breakdown back from the records: on
//! record, from a per-kind tally taken whenever a chunk leaves a lane or
//! an ST builder (under the lock that orders that stream's appends, before
//! a flight window can evict it) plus what is still buffered; on replay,
//! from each DC/DE lane's cursor and each ST domain's stream position.
//! `sync_edges` counts the collected edges. Counts are of *admitted*
//! accesses: a replay gate that diverges or runs out of trace is in none,
//! and a passthrough session counts nothing.
//!
//! What no record holds — lock acquires, waits, spin iterations, edge
//! waits, deferred fix-ups, ST's `next_tid` hand-offs, chunk flushes and
//! bytes — a gate bumps in its thread's [`Stats`] *slot*. A session holds
//! `nthreads + 1` slots, each on cache lines of its own:
//!
//! * `slot[tid]` is written by thread `tid`'s gates only — the
//!   record/replay gate engines, the edge waits and the lane flushes a
//!   gate triggers all bump the slot of the thread that runs them;
//! * the last slot belongs to the session: `finish`, its residue flush
//!   and sink commit, and flight-recorder dumps — everything that has no thread
//!   context — count there.
//!
//! [`Session::stats`](crate::Session::stats) and
//! [`SessionReport::stats`](crate::SessionReport) are the sum over the
//! slots ([`StatsSnapshot::absorb`]) and the derived counts;
//! [`SessionReport::thread_stats`](crate::SessionReport) is the per-thread
//! breakdown.
//!
//! # One writer at a time
//!
//! A slot has one writer at a time, and the session enforces it:
//! [`Session::register_thread`](crate::Session::register_thread) refuses a
//! second live context for a `tid` that still has one, and the session
//! slot's two writers — `finish`'s residue flush and
//! [`Session::dump`](crate::Session::dump), which may run concurrently —
//! take turns under one cold lock. So a bump is a plain load and store of
//! the counter word, not a locked read-modify-write: ≈ 0.3–0.4 ns against
//! ≈ 7 ns per counter on the 2-vCPU Xeon host of EXPERIMENTS.md
//! ("Owner-written gate bookkeeping").
//!
//! The words stay atomics because other threads *read* them:
//! `Session::stats()` sums the slots while the workers are still gating.
//! A `tid` registered again in a later parallel region, on another OS
//! thread, continues the counts of the context it replaces: the slot's
//! registration flag is cleared with Release when that context drops and
//! swapped with AcqRel at registration, which orders the old writer's
//! last stores before the new writer's first loads. A caller that drives
//! one [`Stats`] from two threads at once (outside a session) loses
//! counts, never memory safety.

// ORDERING(file): every atomic in this module is a monotonic diagnostic
// counter with one writer at a time (see the module docs). The writer
// bumps it with a Relaxed load and store — nothing is published through
// it, and the happens-before between successive writers comes from the
// session's registration flag or its out-of-band lock, not from the
// counter. `snapshot` reads them either live, where any interleaving of
// monotone counts is an acceptable answer, or after the run's threads
// have been joined, which is the synchronization edge that makes the
// final report exact.
use crate::site::AccessKind;
use crate::trace::TraceBundle;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// One slot of live counters (see the module docs for the slot model and
/// its one-writer rule). Every bump is a relaxed load and store; snapshot
/// with [`Stats::snapshot`].
#[derive(Debug, Default)]
pub struct Stats {
    lock_acquires: AtomicU64,
    comms: AtomicU64,
    waits: AtomicU64,
    spin_iters: AtomicU64,
    deferred_finalizations: AtomicU64,
    chunk_flushes: AtomicU64,
    io_bytes_written: AtomicU64,
    edge_waits: AtomicU64,
}

/// Add `n` to a counter whose only writer is the calling thread: a load
/// and a store, no locked instruction.
#[inline]
fn bump(counter: &AtomicU64, n: u64) {
    counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

impl Stats {
    /// Fresh zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Stats::default()
    }

    /// Count one acquisition of the serializing gate lock.
    #[inline]
    pub fn bump_lock(&self) {
        bump(&self.lock_acquires, 1);
    }

    /// Count `n` inter-thread communication events (§IV-C2) that no
    /// record shows: ST replay's `next_tid` hand-offs.
    #[inline]
    pub fn bump_comms(&self, n: u64) {
        bump(&self.comms, n);
    }

    /// Count one replay wait (a gate that did not pass immediately).
    #[inline]
    pub fn bump_waits(&self) {
        bump(&self.waits, 1);
    }

    /// Add spin-loop iterations burned while waiting.
    #[inline]
    pub fn add_spin_iters(&self, n: u64) {
        bump(&self.spin_iters, n);
    }

    /// Count one store record whose epoch was finalized by a later access
    /// (the deferred-store rule of Table V).
    #[inline]
    pub fn bump_deferred(&self) {
        bump(&self.deferred_finalizations, 1);
    }

    /// Count one streaming chunk flushed to a record stream.
    #[inline]
    pub fn bump_chunk_flush(&self) {
        bump(&self.chunk_flushes, 1);
    }

    /// Account bytes written to a record file.
    #[inline]
    pub fn add_io_written(&self, bytes: u64) {
        bump(&self.io_bytes_written, bytes);
    }

    /// Count one replay wait on a *foreign* domain's turnstile (a
    /// cross-domain edge being enforced).
    #[inline]
    pub fn bump_edge_wait(&self) {
        bump(&self.edge_waits, 1);
    }

    /// Copy the slot's counters into a snapshot. The counts a session
    /// derives ([`GateCounts`]) are zero here.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            lock_acquires: self.lock_acquires.load(Ordering::Relaxed),
            comms: self.comms.load(Ordering::Relaxed),
            waits: self.waits.load(Ordering::Relaxed),
            spin_iters: self.spin_iters.load(Ordering::Relaxed),
            deferred_finalizations: self.deferred_finalizations.load(Ordering::Relaxed),
            chunk_flushes: self.chunk_flushes.load(Ordering::Relaxed),
            io_bytes_written: self.io_bytes_written.load(Ordering::Relaxed),
            edge_waits: self.edge_waits.load(Ordering::Relaxed),
            ..StatsSnapshot::default()
        }
    }
}

/// Records per kind code in `codes`, the last slot counting codes that
/// name no kind.
pub(crate) fn kind_counts(codes: &[u8]) -> [u64; 8] {
    let mut counts = [0u64; 8];
    // A byte sum per kind over at most 255 codes vectorizes, where an
    // increment per code would chain through memory on a run of one kind
    // — and a replay's `finish` counts its whole trace.
    for chunk in codes.chunks(255) {
        for (code, n) in (0..7).zip(&mut counts) {
            *n += u64::from(chunk.iter().fold(0u8, |sum, &c| sum + u8::from(c == code)));
        }
    }
    counts[7] = codes.len() as u64 - counts[..7].iter().sum::<u64>();
    counts
}

/// Add the per-kind counts `from` to `into`.
pub(crate) fn add_to(into: &mut [u64; 8], from: &[u64; 8]) {
    into.iter_mut().zip(from).for_each(|(n, c)| *n += c);
}

/// Add a shared ST stream — thread column `tids`, kind column `kinds` —
/// to `rows` (index = tid, per kind code as [`kind_counts`]).
pub(crate) fn count_st(rows: &mut [[u64; 8]], tids: &[u32], kinds: &[u8]) {
    for (tids, kinds) in tids.chunks(255).zip(kinds.chunks(255)) {
        let first = tids[0];
        match rows.get_mut(first as usize) {
            // A block of one thread, the bulk of a stream whose threads
            // seldom hand off, counts as a thread's own stream does.
            Some(row) if tids.iter().all(|&t| t == first) => add_to(row, &kind_counts(kinds)),
            _ => {
                for (&tid, &kind) in tids.iter().zip(kinds) {
                    if let Some(row) = rows.get_mut(tid as usize) {
                        row[usize::from(kind).min(7)] += 1;
                    }
                }
            }
        }
    }
}

/// The gate counts a run's records hold (see the module docs): per thread
/// `gates`, `gates_by_kind` and `validate_checks`, and per gate domain the
/// gates, for more than one domain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GateCounts {
    /// Index = `tid`.
    pub threads: Vec<StatsSnapshot>,
    /// Index = gate domain; empty for a single domain.
    pub domains: Vec<u64>,
}

impl GateCounts {
    /// No records yet, for `nthreads` threads over `domains` gate domains.
    pub(crate) fn new(nthreads: u32, domains: u32) -> GateCounts {
        GateCounts {
            threads: vec![StatsSnapshot::default(); nthreads as usize],
            domains: vec![0; if domains > 1 { domains as usize } else { 0 }],
        }
    }

    /// Every record of `bundle`; a record of a stream with a site column
    /// is one validation.
    #[must_use]
    pub fn of(bundle: &TraceBundle) -> GateCounts {
        GateCounts::of_prefixes(bundle, |_, _| usize::MAX)
    }

    /// [`GateCounts::of`] the first `end(dom, stream)` records of each
    /// stream, where `stream` is a DC/DE stream's thread and 0 for a
    /// domain's shared ST stream.
    pub(crate) fn of_prefixes(bundle: &TraceBundle, end: impl Fn(u32, u32) -> usize) -> GateCounts {
        let mut counts = GateCounts::new(bundle.nthreads, bundle.domains);
        for dom in 0..bundle.domains {
            if let Some(st) = bundle.st_stream(dom) {
                let n = end(dom, 0).min(st.len());
                let no_kinds = vec![u8::MAX; if st.kinds.is_some() { 0 } else { n }];
                let kinds = st.kinds.as_deref().map_or(&no_kinds[..], |k| &k[..n]);
                let mut rows = vec![[0; 8]; bundle.nthreads as usize];
                count_st(&mut rows, &st.tids[..n], kinds);
                for (tid, row) in rows.iter().enumerate() {
                    counts.add(dom, tid, row, st.sites.is_some());
                }
                continue;
            }
            let streams = bundle.threads.iter().skip((dom * bundle.nthreads) as usize);
            for (tid, trace) in (0..bundle.nthreads).zip(streams) {
                let n = end(dom, tid).min(trace.len());
                let row = match &trace.kinds {
                    Some(kinds) => kind_counts(&kinds[..n]),
                    None => [0, 0, 0, 0, 0, 0, 0, n as u64],
                };
                counts.add(dom, tid as usize, &row, trace.sites.is_some());
            }
        }
        counts
    }

    /// Add thread `tid`'s gates in domain `dom`, per kind code as
    /// [`kind_counts`]; `validated` if their stream has a site column.
    pub(crate) fn add(&mut self, dom: u32, tid: usize, kinds: &[u64; 8], validated: bool) {
        let (t, n) = (&mut self.threads[tid], kinds.iter().sum::<u64>());
        t.gates += n;
        for (g, c) in t.gates_by_kind.iter_mut().zip(kinds) {
            *g += c;
        }
        t.validate_checks += if validated { n } else { 0 };
        if let Some(d) = self.domains.get_mut(dom as usize) {
            *d += n;
        }
    }
}

/// Immutable copy of one [`Stats`] slot, or the sum of several, with the
/// counts a session reads back from its records (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Admitted gate passages (0 in passthrough).
    pub gates: u64,
    /// Gate passages per [`AccessKind`] (indexed by `AccessKind::code()`);
    /// they sum to `gates` unless a replayed trace has no kind column.
    pub gates_by_kind: [u64; 7],
    /// Acquisitions of the lock `L`: one per ST record gate and per baton
    /// won in ST replay. DC/DE record through the ticket gate and never
    /// take it, so for them this stays 0.
    pub lock_acquires: u64,
    /// Inter-thread communication events during replay (§IV-C2): one per
    /// admitted gate, plus ST's `next_tid` hand-offs.
    pub comms: u64,
    /// Gates that had to wait in replay.
    pub waits: u64,
    /// Total spin iterations across all waits.
    pub spin_iters: u64,
    /// Trace records produced.
    pub records_written: u64,
    /// Trace records consumed by admitted replay gates.
    pub records_read: u64,
    /// DE stores that ended below their own clock — one fix-up each.
    pub deferred_finalizations: u64,
    /// Streaming chunks flushed to record streams during the run.
    pub chunk_flushes: u64,
    /// Bytes written to record files.
    pub io_bytes_written: u64,
    /// Replay-validation comparisons: records read from streams with a
    /// site column.
    pub validate_checks: u64,
    /// Cross-domain happens-before edges collected (record mode, D > 1).
    pub sync_edges: u64,
    /// Replay waits on foreign domains' turnstiles (edges enforced).
    pub edge_waits: u64,
}

impl StatsSnapshot {
    /// Add every counter of `other` to `self` — how the per-thread slots
    /// fold into a session total.
    pub fn absorb(&mut self, other: &StatsSnapshot) {
        // Destructured so a new counter cannot be left out of the sum.
        let StatsSnapshot {
            gates,
            gates_by_kind,
            lock_acquires,
            comms,
            waits,
            spin_iters,
            records_written,
            records_read,
            deferred_finalizations,
            chunk_flushes,
            io_bytes_written,
            validate_checks,
            sync_edges,
            edge_waits,
        } = other;
        self.gates += gates;
        for (dst, src) in self.gates_by_kind.iter_mut().zip(gates_by_kind) {
            *dst += src;
        }
        self.lock_acquires += lock_acquires;
        self.comms += comms;
        self.waits += waits;
        self.spin_iters += spin_iters;
        self.records_written += records_written;
        self.records_read += records_read;
        self.deferred_finalizations += deferred_finalizations;
        self.chunk_flushes += chunk_flushes;
        self.io_bytes_written += io_bytes_written;
        self.validate_checks += validate_checks;
        self.sync_edges += sync_edges;
        self.edge_waits += edge_waits;
    }

    /// Gate count for one kind.
    #[must_use]
    pub fn gates_of(&self, kind: AccessKind) -> u64 {
        self.gates_by_kind[kind.code() as usize]
    }

    /// Mean inter-thread communications per gated access — the paper's
    /// headline difference between ST (≈2) and DC/DE (1) replay (§IV-C2).
    #[must_use]
    pub fn comms_per_gate(&self) -> f64 {
        if self.gates == 0 {
            0.0
        } else {
            self.comms as f64 / self.gates as f64
        }
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "gates:              {}", self.gates)?;
        for kind in AccessKind::ALL {
            let n = self.gates_of(kind);
            if n > 0 {
                writeln!(f, "  {:<12} {}", format!("{kind}:"), n)?;
            }
        }
        writeln!(f, "lock acquires:      {}", self.lock_acquires)?;
        writeln!(
            f,
            "comms:              {} ({:.2}/gate)",
            self.comms,
            self.comms_per_gate()
        )?;
        writeln!(f, "waits:              {}", self.waits)?;
        writeln!(f, "spin iterations:    {}", self.spin_iters)?;
        writeln!(f, "records written:    {}", self.records_written)?;
        writeln!(f, "records read:       {}", self.records_read)?;
        writeln!(f, "deferred stores:    {}", self.deferred_finalizations)?;
        writeln!(f, "chunk flushes:      {}", self.chunk_flushes)?;
        writeln!(f, "trace I/O:          {} B out", self.io_bytes_written)?;
        writeln!(f, "validate checks:    {}", self.validate_checks)?;
        write!(
            f,
            "cross-domain edges: {} recorded, {} replay waits",
            self.sync_edges, self.edge_waits
        )
    }
}

/// Distribution of *epoch sizes* in a DE trace — the analysis of Fig. 20.
///
/// The epoch size is the number of load/store accesses recorded with the
/// same epoch value. DC traces are the degenerate case where every epoch
/// has size 1 (§VI-B: *"we can view DC records as a special case where each
/// epoch is strictly limited to containing only one load or store
/// instruction"*).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochHistogram {
    /// `size -> number of epochs with that size`, sorted by size.
    pub counts: BTreeMap<u64, u64>,
}

impl EpochHistogram {
    /// Build the histogram from a recorded bundle by grouping all recorded
    /// values (clocks or epochs) across threads. Multi-domain bundles are
    /// grouped per `(domain, value)` — clocks in different gate domains are
    /// independent counters, so equal raw values across domains are *not*
    /// the same epoch.
    #[must_use]
    pub fn from_bundle(bundle: &TraceBundle) -> EpochHistogram {
        let mut population: BTreeMap<(usize, u64), u64> = BTreeMap::new();
        let nthreads = bundle.nthreads.max(1) as usize;
        for (i, thread) in bundle.threads.iter().enumerate() {
            let dom = i / nthreads;
            for &v in &thread.values {
                *population.entry((dom, v)).or_insert(0) += 1;
            }
        }
        let mut counts: BTreeMap<u64, u64> = BTreeMap::new();
        for size in population.values() {
            *counts.entry(*size).or_insert(0) += 1;
        }
        EpochHistogram { counts }
    }

    /// Total number of epochs.
    #[must_use]
    pub fn total_epochs(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Number of epochs whose size exceeds 1 — the instructions that DE can
    /// execute concurrently in replay.
    #[must_use]
    pub fn epochs_gt1(&self) -> u64 {
        self.counts
            .iter()
            .filter(|(size, _)| **size > 1)
            .map(|(_, n)| *n)
            .sum()
    }

    /// Fraction of epochs with size > 1 (the per-application percentages of
    /// §VI-B: 10.6% AMG, 4% QuickSilver, 27.5% miniFE, 85% HACC, 57% HPCCG).
    #[must_use]
    pub fn frac_gt1(&self) -> f64 {
        let total = self.total_epochs();
        if total == 0 {
            0.0
        } else {
            self.epochs_gt1() as f64 / total as f64
        }
    }

    /// Number of *accesses* that live in epochs of size > 1 — the share of
    /// the replay that DE can execute concurrently (what drives Table X's
    /// replay speedups).
    #[must_use]
    pub fn accesses_in_gt1(&self) -> u64 {
        self.counts
            .iter()
            .filter(|(size, _)| **size > 1)
            .map(|(size, n)| size * n)
            .sum()
    }

    /// Fraction of accesses in shared epochs (access-weighted counterpart
    /// of [`EpochHistogram::frac_gt1`]).
    #[must_use]
    pub fn frac_accesses_gt1(&self) -> f64 {
        let total = self.total_accesses();
        if total == 0 {
            0.0
        } else {
            self.accesses_in_gt1() as f64 / total as f64
        }
    }

    /// Largest epoch size observed.
    #[must_use]
    pub fn max_size(&self) -> u64 {
        self.counts.keys().next_back().copied().unwrap_or(0)
    }

    /// Total accesses covered (Σ size·count).
    #[must_use]
    pub fn total_accesses(&self) -> u64 {
        self.counts.iter().map(|(size, n)| size * n).sum()
    }
}

impl fmt::Display for EpochHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "epoch size | occurrences")?;
        for (size, n) in &self.counts {
            writeln!(f, "{size:>10} | {n}")?;
        }
        write!(
            f,
            "epochs>1: {}/{} ({:.1}%)",
            self.epochs_gt1(),
            self.total_epochs(),
            self.frac_gt1() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Scheme;
    use crate::trace::{ThreadTrace, TraceBundle};

    fn bundle_with_values(per_thread: Vec<Vec<u64>>) -> TraceBundle {
        TraceBundle {
            plan: None,
            edges: vec![],
            checkpoint: None,
            scheme: Scheme::De,
            nthreads: per_thread.len() as u32,
            domains: 1,
            threads: per_thread
                .into_iter()
                .map(|values| ThreadTrace {
                    values,
                    sites: None,
                    kinds: None,
                })
                .collect(),
            st: vec![],
        }
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let s = Stats::new();
        s.bump_comms(3);
        s.bump_lock();
        s.add_io_written(128);
        let snap = s.snapshot();
        assert_eq!(snap.comms, 3);
        assert_eq!(snap.lock_acquires, 1);
        assert_eq!(snap.io_bytes_written, 128);
        // A slot holds no gate count: those are read back from records.
        assert_eq!(snap.gates, 0);
    }

    #[test]
    fn absorb_sums_every_counter() {
        let (a, b) = (Stats::new(), Stats::new());
        a.bump_deferred();
        b.bump_comms(2);
        b.add_spin_iters(7);
        let (mut total, mut other) = (a.snapshot(), b.snapshot());
        (total.gates, total.gates_by_kind[0]) = (1, 1);
        (other.gates, other.gates_by_kind[1]) = (2, 2);
        total.absorb(&other);
        assert_eq!(total.gates, 3);
        assert_eq!(total.gates_by_kind[..2], [1, 2]);
        assert_eq!(total.deferred_finalizations, 1);
        assert_eq!(total.comms, 2);
        assert_eq!(total.spin_iters, 7);
    }

    #[test]
    fn histogram_matches_table_v_example() {
        // Table V epochs: {0,0,0}, {3,3}, {5}, {6} spread over 3 threads.
        let b = bundle_with_values(vec![vec![0, 3, 6], vec![0, 3], vec![0, 5]]);
        let h = EpochHistogram::from_bundle(&b);
        // sizes: epoch0 -> 3, epoch3 -> 2, epoch5 -> 1, epoch6 -> 1
        assert_eq!(h.counts.get(&3), Some(&1));
        assert_eq!(h.counts.get(&2), Some(&1));
        assert_eq!(h.counts.get(&1), Some(&2));
        assert_eq!(h.total_epochs(), 4);
        assert_eq!(h.epochs_gt1(), 2);
        assert_eq!(h.total_accesses(), 7);
        assert_eq!(h.max_size(), 3);
        assert!((h.frac_gt1() - 0.5).abs() < 1e-12);
        assert_eq!(h.accesses_in_gt1(), 5);
        assert!((h.frac_accesses_gt1() - 5.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn kind_counts_match_a_plain_count() {
        // More than one 255-code chunk, and codes that name no kind.
        let codes: Vec<u8> = (0..1000u32).map(|i| (i * i % 11) as u8).collect();
        let mut plain = [0u64; 8];
        for &c in &codes {
            plain[usize::from(c).min(7)] += 1;
        }
        assert_eq!(kind_counts(&codes), plain);
        // An ST stream in runs of 3 (mixed blocks) and of 300 (one-thread
        // blocks too); tid 2 is out of range and counts nowhere.
        for run in [3, 300] {
            let tids: Vec<u32> = (0..1000).map(|i| i / run % 3).collect();
            let mut rows = vec![[0; 8]; 2];
            count_st(&mut rows, &tids, &codes);
            for (t, row) in (0..2).zip(&rows) {
                let mine: Vec<u8> = (codes.iter().zip(&tids))
                    .filter_map(|(&c, &u)| (u == t).then_some(c))
                    .collect();
                assert_eq!(*row, kind_counts(&mine), "runs of {run}, thread {t}");
            }
        }
    }

    #[test]
    fn domain_counters_track_breakdown() {
        // Domain-major DC streams, 2 threads × 3 domains; thread 1's
        // domain-2 stream has no kind column.
        let mut b = bundle_with_values(vec![vec![0], vec![], vec![], vec![], vec![1], vec![2, 3]]);
        (b.scheme, b.nthreads, b.domains) = (Scheme::Dc, 2, 3);
        for (t, kind) in [(0, AccessKind::Load), (4, AccessKind::Store)] {
            b.threads[t].kinds = Some(vec![kind.code()]);
        }
        let counts = GateCounts::of(&b);
        assert_eq!(counts.domains, vec![1, 0, 3]);
        assert_eq!(counts.threads[0].gates_by_kind[..2], [1, 1], "load, store");
        assert_eq!(counts.threads[1].gates, 2, "kind-less records count");
        assert_eq!(counts.threads[1].gates_by_kind, [0; 7]);
        // A prefix counts only the records below its end.
        let head = GateCounts::of_prefixes(&b, |dom, tid| usize::from(dom == 2 && tid == 1));
        assert_eq!(head.domains, vec![0, 0, 1]);
        // A single domain keeps no breakdown.
        (b.domains, b.threads) = (1, b.threads[..2].to_vec());
        assert!(GateCounts::of(&b).domains.is_empty());
    }

    #[test]
    fn histogram_keeps_domains_apart() {
        // Two domains, both with a value-0 pair. Per-domain grouping sees
        // two epochs of size 2, not one of size 4.
        let b = TraceBundle {
            plan: None,
            edges: vec![],
            checkpoint: None,
            scheme: Scheme::De,
            nthreads: 2,
            domains: 2,
            threads: vec![
                ThreadTrace {
                    values: vec![0],
                    sites: None,
                    kinds: None,
                };
                4
            ],
            st: vec![],
        };
        let h = EpochHistogram::from_bundle(&b);
        assert_eq!(h.counts.get(&2), Some(&2), "{h}");
        assert_eq!(h.total_epochs(), 2);
    }

    #[test]
    fn dc_trace_histogram_is_all_ones() {
        // Distinct clocks everywhere -> every epoch size is 1.
        let b = bundle_with_values(vec![vec![0, 2, 4], vec![1, 3, 5]]);
        let h = EpochHistogram::from_bundle(&b);
        assert_eq!(h.counts.len(), 1);
        assert_eq!(h.counts.get(&1), Some(&6));
        assert_eq!(h.frac_gt1(), 0.0);
    }

    #[test]
    fn display_is_well_formed() {
        let s = Stats::new().snapshot();
        let text = s.to_string();
        assert!(text.contains("gates"));
        let b = bundle_with_values(vec![vec![0, 0]]);
        let h = EpochHistogram::from_bundle(&b);
        assert!(h.to_string().contains("epochs>1"));
    }
}
