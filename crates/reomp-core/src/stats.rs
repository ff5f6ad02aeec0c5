//! Runtime counters and post-hoc trace analysis.
//!
//! The counters quantify exactly the overhead sources the paper analyses in
//! §IV-C and Table VI: gate-lock acquisitions (serialized clock/thread-ID
//! assignment), inter-thread communications in replay (2 per region for ST,
//! 1 for DC/DE), waits and spin iterations, and trace I/O volume.
//! [`EpochHistogram`] reproduces the Fig. 20 analysis (number of occurrences
//! of each epoch size and the fraction of epochs with size > 1).
//!
//! # Slots: who writes which counter block
//!
//! The paper's argument for DC/DE is that a gated access touches
//! thread-local state, so the bookkeeping must not put a shared word back
//! on that path. A [`Stats`] is therefore one *slot*, and a session holds
//! `nthreads + 1` of them, each on cache lines of its own:
//!
//! * `slot[tid]` is written by thread `tid`'s gates only — `try_gate_at`,
//!   the record/replay gate engines, the edge waits and the streaming
//!   flushes a gate triggers all bump the slot of the thread that runs
//!   them;
//! * the last slot belongs to the session: `finish`, the streaming
//!   commit and flight-recorder dumps — everything that has no thread
//!   context — count there.
//!
//! [`Session::stats`](crate::Session::stats) and
//! [`SessionReport::stats`](crate::SessionReport) are the sum over the
//! slots ([`StatsSnapshot::absorb`]);
//! [`SessionReport::thread_stats`](crate::SessionReport) is the per-thread
//! breakdown.
//!
//! The counters stay atomics, bumped with relaxed RMWs, although each slot
//! has one writer in a well-formed run: `Session::stats()` reads them while
//! the workers are still gating, a `tid` may be registered again in a later
//! parallel region (on another OS thread), and nothing stops a caller from
//! driving two contexts of one `tid` at once — all of which plain cells
//! would turn into lost updates or data races. An uncontended RMW on a line
//! the thread already owns is the cheap case; the expensive one, the
//! cross-core line transfer, is what the slots remove.

// ORDERING(file): every atomic in this module is a monotonic diagnostic
// counter. Counters are bumped with relaxed RMWs (atomicity is all they
// need — nothing is published through them) and read by `snapshot` either
// live, where any interleaving of monotone counts is an acceptable answer,
// or after the run's threads have been joined, which is the
// synchronization edge that makes the final report exact.
use crate::site::AccessKind;
use crate::sync::CachePadded;
use crate::trace::TraceBundle;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// One slot of live counters (see the module docs for the slot model). All
/// methods are cheap relaxed atomics; snapshot with [`Stats::snapshot`].
#[derive(Debug, Default)]
pub struct Stats {
    gates_by_kind: [AtomicU64; 7],
    lock_acquires: AtomicU64,
    comms: AtomicU64,
    waits: AtomicU64,
    spin_iters: AtomicU64,
    records_written: AtomicU64,
    records_read: AtomicU64,
    deferred_finalizations: AtomicU64,
    chunk_flushes: AtomicU64,
    io_bytes_written: AtomicU64,
    io_bytes_read: AtomicU64,
    io_files: AtomicU64,
    validate_checks: AtomicU64,
    sync_edges: AtomicU64,
    edge_waits: AtomicU64,
    /// Gate passages per gate domain (empty for single-domain sessions —
    /// there the breakdown is just `gates`), dense in line-aligned blocks
    /// of [`DOMAINS_PER_BLOCK`]. One thread writes the whole slice, so the
    /// entries need no padding from each other; but the slice is a heap
    /// allocation of its own, and unaligned it could share its first or
    /// last line with another slot's.
    domain_gates: Box<[CachePadded<[AtomicU64; DOMAINS_PER_BLOCK]>]>,
    /// How many entries of `domain_gates` are in use.
    domains: usize,
}

/// Per-domain counters in one [`CachePadded`] block — as many `u64`s as
/// fit in it.
const DOMAINS_PER_BLOCK: usize = crate::sync::CACHE_LINE / 8;

impl Stats {
    /// Fresh zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Stats::default()
    }

    /// Fresh counters that additionally keep a per-domain breakdown of
    /// gate passages for `domains` gate domains. With `domains <= 1` the
    /// breakdown is omitted (it would equal the total).
    #[must_use]
    pub fn with_domains(domains: u32) -> Self {
        let n = if domains > 1 { domains as usize } else { 0 };
        Stats {
            domain_gates: (0..n.div_ceil(DOMAINS_PER_BLOCK))
                .map(|_| CachePadded::default())
                .collect(),
            domains: n,
            ..Stats::default()
        }
    }

    /// Count one gate passage of the given kind. The total is derived:
    /// [`StatsSnapshot::gates`] is the sum over the kinds.
    #[inline]
    pub fn bump_gate(&self, kind: AccessKind) {
        self.gates_by_kind[kind.code() as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Count one acquisition of the serializing gate lock.
    #[inline]
    pub fn bump_lock(&self) {
        self.lock_acquires.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one gate passage in gate domain `dom` (no-op unless the stats
    /// were created with [`Stats::with_domains`]).
    #[inline]
    pub fn bump_domain_gate(&self, dom: u32) {
        let d = dom as usize;
        if d < self.domains {
            self.domain_gates[d / DOMAINS_PER_BLOCK][d % DOMAINS_PER_BLOCK]
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Per-domain gate-passage counts of this slot (empty for
    /// single-domain sessions). Summed over a multi-domain record/replay
    /// session's slots the vector sums to `gates`; passthrough gates are
    /// counted only in the total.
    #[must_use]
    pub fn domain_gates(&self) -> Vec<u64> {
        self.domain_gates
            .iter()
            .flat_map(|block| block.iter())
            .take(self.domains)
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Count `n` inter-thread communication events (§IV-C2).
    #[inline]
    pub fn bump_comms(&self, n: u64) {
        self.comms.fetch_add(n, Ordering::Relaxed);
    }

    /// Count one replay wait (a gate that did not pass immediately).
    #[inline]
    pub fn bump_waits(&self) {
        self.waits.fetch_add(1, Ordering::Relaxed);
    }

    /// Add spin-loop iterations burned while waiting.
    #[inline]
    pub fn add_spin_iters(&self, n: u64) {
        self.spin_iters.fetch_add(n, Ordering::Relaxed);
    }

    /// Count one trace record produced (record mode).
    #[inline]
    pub fn bump_record_written(&self) {
        self.records_written.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one trace record consumed (replay mode).
    #[inline]
    pub fn bump_record_read(&self) {
        self.records_read.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one store record whose epoch was finalized by a later access
    /// (the deferred-store rule of Table V).
    #[inline]
    pub fn bump_deferred(&self) {
        self.deferred_finalizations.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one streaming chunk flushed to a record stream.
    #[inline]
    pub fn bump_chunk_flush(&self) {
        self.chunk_flushes.fetch_add(1, Ordering::Relaxed);
    }

    /// Account bytes written to a record file.
    #[inline]
    pub fn add_io_written(&self, bytes: u64) {
        self.io_bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Account bytes read from a record file.
    #[inline]
    pub fn add_io_read(&self, bytes: u64) {
        self.io_bytes_read.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Count one record file touched.
    #[inline]
    pub fn bump_io_files(&self) {
        self.io_files.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one replay-validation comparison.
    #[inline]
    pub fn bump_validate(&self) {
        self.validate_checks.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one cross-domain happens-before edge recorded.
    #[inline]
    pub fn bump_sync_edge(&self) {
        self.sync_edges.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one replay wait on a *foreign* domain's turnstile (a
    /// cross-domain edge being enforced).
    #[inline]
    pub fn bump_edge_wait(&self) {
        self.edge_waits.fetch_add(1, Ordering::Relaxed);
    }

    /// Copy all counters into an immutable snapshot.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut by_kind = [0u64; 7];
        for (dst, src) in by_kind.iter_mut().zip(&self.gates_by_kind) {
            *dst = src.load(Ordering::Relaxed);
        }
        StatsSnapshot {
            gates: by_kind.iter().sum(),
            gates_by_kind: by_kind,
            lock_acquires: self.lock_acquires.load(Ordering::Relaxed),
            comms: self.comms.load(Ordering::Relaxed),
            waits: self.waits.load(Ordering::Relaxed),
            spin_iters: self.spin_iters.load(Ordering::Relaxed),
            records_written: self.records_written.load(Ordering::Relaxed),
            records_read: self.records_read.load(Ordering::Relaxed),
            deferred_finalizations: self.deferred_finalizations.load(Ordering::Relaxed),
            chunk_flushes: self.chunk_flushes.load(Ordering::Relaxed),
            io_bytes_written: self.io_bytes_written.load(Ordering::Relaxed),
            io_bytes_read: self.io_bytes_read.load(Ordering::Relaxed),
            io_files: self.io_files.load(Ordering::Relaxed),
            validate_checks: self.validate_checks.load(Ordering::Relaxed),
            sync_edges: self.sync_edges.load(Ordering::Relaxed),
            edge_waits: self.edge_waits.load(Ordering::Relaxed),
        }
    }
}

/// Immutable copy of one [`Stats`] slot, or the sum of several.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Total gate passages.
    pub gates: u64,
    /// Gate passages per [`AccessKind`] (indexed by `AccessKind::code()`).
    pub gates_by_kind: [u64; 7],
    /// Gate-lock acquisitions (serialization events).
    pub lock_acquires: u64,
    /// Inter-thread communication events during replay (§IV-C2).
    pub comms: u64,
    /// Gates that had to wait in replay.
    pub waits: u64,
    /// Total spin iterations across all waits.
    pub spin_iters: u64,
    /// Trace records produced.
    pub records_written: u64,
    /// Trace records consumed.
    pub records_read: u64,
    /// DE stores that ended below their own clock — one fix-up each.
    pub deferred_finalizations: u64,
    /// Streaming chunks flushed to record streams during the run.
    pub chunk_flushes: u64,
    /// Bytes written to record files.
    pub io_bytes_written: u64,
    /// Bytes read from record files.
    pub io_bytes_read: u64,
    /// Record files touched.
    pub io_files: u64,
    /// Replay-validation comparisons performed.
    pub validate_checks: u64,
    /// Cross-domain happens-before edges recorded (record mode, D > 1).
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
            io_bytes_read,
            io_files,
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
        self.io_bytes_read += io_bytes_read;
        self.io_files += io_files;
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
        writeln!(
            f,
            "trace I/O:          {} B out, {} B in, {} files",
            self.io_bytes_written, self.io_bytes_read, self.io_files
        )?;
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
        s.bump_gate(AccessKind::Load);
        s.bump_gate(AccessKind::Load);
        s.bump_gate(AccessKind::Critical);
        s.bump_comms(3);
        s.bump_lock();
        s.add_io_written(128);
        let snap = s.snapshot();
        assert_eq!(snap.gates, 3);
        assert_eq!(snap.gates_of(AccessKind::Load), 2);
        assert_eq!(snap.gates_of(AccessKind::Critical), 1);
        assert_eq!(snap.comms, 3);
        assert_eq!(snap.lock_acquires, 1);
        assert_eq!(snap.io_bytes_written, 128);
        assert!((snap.comms_per_gate() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn absorb_sums_every_counter() {
        let (a, b) = (Stats::new(), Stats::new());
        a.bump_gate(AccessKind::Load);
        a.bump_record_written();
        b.bump_gate(AccessKind::Load);
        b.bump_gate(AccessKind::Store);
        b.bump_comms(2);
        b.add_spin_iters(7);
        let mut total = a.snapshot();
        total.absorb(&b.snapshot());
        assert_eq!(total.gates, 3, "the derived total sums like the kinds");
        assert_eq!(total.gates_of(AccessKind::Load), 2);
        assert_eq!(total.gates_of(AccessKind::Store), 1);
        assert_eq!(total.records_written, 1);
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
    fn domain_counters_track_breakdown() {
        let s = Stats::with_domains(3);
        s.bump_domain_gate(0);
        s.bump_domain_gate(2);
        s.bump_domain_gate(2);
        s.bump_domain_gate(99); // out of range: ignored, not a panic
        assert_eq!(s.domain_gates(), vec![1, 0, 2]);
        // Single-domain stats keep no breakdown.
        let s = Stats::with_domains(1);
        s.bump_domain_gate(0);
        assert!(s.domain_gates().is_empty());
        // More domains than one block holds.
        let n = DOMAINS_PER_BLOCK as u32 + 2;
        let s = Stats::with_domains(n);
        s.bump_domain_gate(n - 1);
        s.bump_domain_gate(n); // one past the end, inside the last block
        let got = s.domain_gates();
        assert_eq!(got.len(), n as usize);
        assert_eq!(got.iter().sum::<u64>(), 1);
        assert_eq!(got[n as usize - 1], 1);
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
