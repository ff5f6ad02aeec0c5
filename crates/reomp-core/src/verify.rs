//! Static trace verification: prove — from the trace artifacts alone, no
//! user code executed — that a [`TraceBundle`] is replayable.
//!
//! The [`Verifier`] reconstructs the happens-before structure a replay
//! would enforce (per-domain clocks, [`CrossDomainEdge`](crate::CrossDomainEdge) waits,
//! [`Checkpoint`](crate::trace::Checkpoint) bases) and emits a
//! [`VerifyReport`] of tiered [`Diagnostic`]s:
//!
//! * **Structural** — the shape of the bundle: stream arity, column
//!   lengths, kind codes, DC clock contiguity, checkpoint arity, edge
//!   target existence. This tier is *exactly* what
//!   [`TraceBundle::validate`] checks — `validate()` is a thin wrapper
//!   over it, so the two checkers cannot drift.
//! * **Ordering** — whether replay can actually drive the recorded order
//!   to completion: per-thread DC clock monotonicity, DE epoch
//!   reachability, ST baton-stream purity, edge-graph acyclicity,
//!   flight-window well-formedness, and DE epoch-floor consistency.
//! * **Plan** — whether the stamped site → domain partition agrees with
//!   where accesses were actually recorded. (The deeper plan-soundness
//!   check — every *racing* site pair co-located or edge-connected — needs
//!   a race report and lives in `racedet::offline`; its diagnostics fold
//!   into the same report via [`VerifyReport::absorb`].)
//!
//! A bundle with no error diagnostics earns a [`Certificate`]: a
//! deterministic digest over every verified invariant (and the full trace
//! content), printable by `reomp-inspect --verify` and diffable by CI —
//! two identical recordings always produce the identical certificate.
//!
//! All checks are panic-free and allocate at most O(trace) — adversarial
//! input yields diagnostics, never a crash. Diagnostics within one check
//! family are capped at [`MAX_DIAGS_PER_CHECK`] (with a summary line) so a
//! hostile bundle cannot balloon the report.

use crate::error::TraceError;
use crate::session::Scheme;
use crate::site::SiteId;
use crate::trace::{ThreadTrace, TraceBundle};

/// Upper bound on diagnostics emitted by one check family; the overflow is
/// summarized in a final diagnostic instead of enumerated.
pub const MAX_DIAGS_PER_CHECK: usize = 8;

/// Which analysis tier produced a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Bundle shape: arity, column lengths, codes, contiguity.
    Structural,
    /// Replay-order soundness: monotonicity, reachability, acyclicity.
    Ordering,
    /// Site → domain partition agreement.
    Plan,
}

impl Tier {
    /// Lower-case tier name, as printed in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Tier::Structural => "structural",
            Tier::Ordering => "ordering",
            Tier::Plan => "plan",
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but replayable.
    Warning,
    /// The bundle will not replay soundly (or is corrupt).
    Error,
}

impl Severity {
    /// Lower-case severity name, as printed in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One verification finding: tier + severity + where + what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Analysis tier that found it.
    pub tier: Tier,
    /// Error or warning.
    pub severity: Severity,
    /// Where in the bundle ("bundle", "domain 2 thread 1", "edge #3", …).
    pub location: String,
    /// Human-readable description of the violated invariant.
    pub message: String,
}

impl Diagnostic {
    fn error(tier: Tier, location: impl Into<String>, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            tier,
            severity: Severity::Error,
            location: location.into(),
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}/{}] {}: {}",
            self.tier.name(),
            self.severity.name(),
            self.location,
            self.message
        )
    }
}

/// Replayability certificate: a deterministic digest over the verified
/// invariants and the full trace content. Two identical recordings verify
/// to the identical certificate; any content or metadata change moves the
/// digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// [`Digest`] over the canonical bundle serialization.
    pub digest: u64,
    /// Human-readable summary of what was certified
    /// (`scheme=… threads=… domains=… records=… edges=…`).
    pub detail: String,
}

impl std::fmt::Display for Certificate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "reomp-cert-v3 {:016x} {}", self.digest, self.detail)
    }
}

/// The structured outcome of a verification run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Every finding, in check order.
    pub diagnostics: Vec<Diagnostic>,
    /// Present iff no error-severity diagnostic was found.
    pub certificate: Option<Certificate>,
    /// Number of invariant families evaluated.
    pub checks: u32,
}

impl VerifyReport {
    /// Whether the bundle verified with no errors (warnings permitted).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.errors().next().is_none()
    }

    /// Error-severity diagnostics only.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// The most severe tier an *error* was found in (`None` when clean).
    /// Structural outranks Ordering outranks Plan for exit-code purposes:
    /// a corrupt bundle is reported as corrupt even if later tiers also
    /// ran.
    #[must_use]
    pub fn worst_tier(&self) -> Option<Tier> {
        self.errors().map(|d| d.tier).min()
    }

    /// Push `diag` as the `count`-th finding of one check family: the
    /// first [`MAX_DIAGS_PER_CHECK`] verbatim, the next one as a single
    /// "suppressed" summary line, the rest dropped.
    pub fn push_capped(&mut self, count: &mut usize, diag: Diagnostic) {
        *count += 1;
        match (*count).cmp(&(MAX_DIAGS_PER_CHECK + 1)) {
            std::cmp::Ordering::Less => self.diagnostics.push(diag),
            std::cmp::Ordering::Equal => self.diagnostics.push(Diagnostic {
                message: "further findings of this kind suppressed".into(),
                ..diag
            }),
            std::cmp::Ordering::Greater => {}
        }
    }

    /// Fold externally produced diagnostics (e.g. `racedet::offline`'s
    /// plan-soundness findings) into this report. Any absorbed error
    /// revokes the certificate.
    pub fn absorb(&mut self, diags: impl IntoIterator<Item = Diagnostic>) {
        for d in diags {
            if d.severity == Severity::Error {
                self.certificate = None;
            }
            self.diagnostics.push(d);
        }
    }
}

impl std::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let errors = self.errors().count();
        let warnings = self.diagnostics.len() - errors;
        if self.is_clean() {
            writeln!(
                f,
                "verify: clean — {} checks, {warnings} warning(s)",
                self.checks
            )?;
        } else {
            writeln!(
                f,
                "verify: {errors} error(s), {warnings} warning(s) — worst tier: {}",
                self.worst_tier().map_or("none", Tier::name)
            )?;
        }
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        if let Some(cert) = &self.certificate {
            writeln!(f, "certificate: {cert}")?;
        }
        Ok(())
    }
}

/// Word digest for certificates: every field enters as one `u64` through
/// `h = (h ^ w) * K`, rotated. `K` is odd, so each step is a bijection in
/// both the state and the word, and any single-field change moves the
/// digest. A column of words runs through four lanes of the same step
/// ([`Digest::column`]). Deterministic and dependency-free. Public so
/// sibling verifiers (e.g. `rmpi`'s) mint certificates from the identical
/// function.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    const R: u32 = 29;

    /// A fresh digest at the seed.
    #[must_use]
    pub fn new() -> Digest {
        Digest(Self::SEED)
    }

    /// Mix one word.
    #[inline]
    pub fn u64(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(Self::K).rotate_left(Self::R);
    }

    /// Mix a column of words: four lanes, each a digest from the seed,
    /// take the words in rotation, then enter this digest one after the
    /// other. Their multiply chains overlap, where one chain would wait
    /// on every multiply. The column's length is not mixed: the caller's
    /// is.
    pub fn column(&mut self, words: impl IntoIterator<Item = u64>) {
        let mut lanes = [Digest::new(); 4];
        words.into_iter().for_each(|w| {
            let mut head = lanes[0];
            head.u64(w);
            lanes = [lanes[1], lanes[2], lanes[3], head];
        });
        for lane in lanes {
            self.u64(lane.0);
        }
    }

    /// Mix a byte column as a [`Digest::column`] of little-endian words, 8
    /// bytes each, the tail zero-padded. Its length is not mixed either.
    pub fn bytes(&mut self, bytes: &[u8]) {
        let words = bytes.chunks_exact(8);
        let mut tail = [0u8; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        let tail = (!words.remainder().is_empty()).then_some(u64::from_le_bytes(tail));
        let words = words.map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        self.column(words.chain(tail));
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Digest {
    fn default() -> Digest {
        Digest::new()
    }
}

/// The static trace verifier. Stateless; one instance can verify any
/// number of bundles.
#[derive(Debug, Default)]
pub struct Verifier;

impl Verifier {
    /// A verifier with default settings.
    #[must_use]
    pub fn new() -> Verifier {
        Verifier
    }

    /// Run every tier over `bundle` and produce the report. Never panics;
    /// structural corruption short-circuits the deeper tiers (their
    /// invariants are meaningless on a malformed shape).
    #[must_use]
    pub fn verify(&self, bundle: &TraceBundle) -> VerifyReport {
        let mut report = VerifyReport {
            diagnostics: Vec::new(),
            certificate: None,
            checks: 0,
        };

        // Tier 1: structural — identical to `TraceBundle::validate()`.
        report.checks += 1;
        if let Err(e) = structural(bundle) {
            let message = match e {
                TraceError::Corrupt(msg) => msg,
                other => other.to_string(),
            };
            report
                .diagnostics
                .push(Diagnostic::error(Tier::Structural, "bundle", message));
            return report;
        }

        // Tier 2: ordering.
        ordering(bundle, &mut report);

        // Tier 3: plan agreement.
        plan_agreement(bundle, &mut report);

        if report.is_clean() {
            report.certificate = Some(certificate(bundle));
        }
        report
    }
}

/// The Structural tier as a single `Result`, preserving the exact error
/// text [`TraceBundle::validate`] has always returned — `validate()` calls
/// this directly.
pub(crate) fn structural(bundle: &TraceBundle) -> Result<(), TraceError> {
    if bundle.nthreads == 0 {
        return Err(TraceError::Corrupt("zero threads".into()));
    }
    if bundle.domains == 0 {
        return Err(TraceError::Corrupt("zero domains".into()));
    }
    let expect = bundle.domains as usize * bundle.nthreads as usize;
    if bundle.threads.len() != expect {
        return Err(TraceError::Corrupt(format!(
            "{} thread traces for {} threads × {} domains",
            bundle.threads.len(),
            bundle.nthreads,
            bundle.domains
        )));
    }
    match (bundle.scheme, bundle.st.len()) {
        (Scheme::St, n) if n != bundle.domains as usize => {
            return Err(TraceError::Corrupt(format!(
                "ST bundle with {n} st streams for {} domains",
                bundle.domains
            )))
        }
        (Scheme::St, _) => {
            for st in &bundle.st {
                st.check(bundle.nthreads)?;
            }
        }
        (_, 0) => {}
        (_, _) => return Err(TraceError::Corrupt("non-ST bundle with st stream".into())),
    }
    for (i, t) in bundle.threads.iter().enumerate() {
        let (dom, tid) = (i / bundle.nthreads as usize, i % bundle.nthreads as usize);
        t.check(&format!("domain {dom} thread {tid}"))?;
    }
    if let Some(cp) = &bundle.checkpoint {
        cp.check(bundle.domains)?;
        // The base is an unbounded varint on disk: every clock, ceiling,
        // floor and edge bound below computes `base + records`, so a
        // forged base must stop here instead of wrapping there.
        for dom in 0..bundle.domains {
            let (base, records) = (cp.base_of(dom), bundle.domain_records(dom));
            if base.checked_add(records).is_none() {
                return Err(TraceError::Corrupt(format!(
                    "domain {dom}: clock base {base} + {records} records overflows the clock"
                )));
            }
        }
    }
    if bundle.scheme == Scheme::Dc {
        // DC clocks are per-domain: within each domain, the clocks across
        // all threads must be a permutation of base..base+n_d (clock
        // contiguity is a *domain* property — domains tick independently;
        // base is 0 unless a flight-recorder checkpoint shifted the
        // window's start).
        for (dom, chunk) in bundle.threads.chunks(bundle.nthreads as usize).enumerate() {
            let base = bundle.clock_base(dom as u32);
            if !is_permutation(chunk, base) {
                sorted_permutation(dom, chunk, base)?;
            }
        }
    }
    if let Some(plan) = &bundle.plan {
        if plan.domains() != bundle.domains {
            return Err(TraceError::Corrupt(format!(
                "plan partitions {} domains but the bundle has {}",
                plan.domains(),
                bundle.domains
            )));
        }
    }
    check_edges(bundle)
}

/// Whether the clocks of `streams` are exactly `base..base + n`, `n`
/// being their total count: every clock in range and none seen twice
/// (so, by pigeonhole, each seen once). One pass over an `n`-bit set and
/// no copy of the clocks. The set word being filled stays in a register
/// while consecutive clocks land in it, as a thread's increasing clocks
/// do, instead of a load and store per clock that stall on forwarding.
fn is_permutation(streams: &[ThreadTrace], base: u64) -> bool {
    let n: u64 = streams.iter().map(|t| t.values.len() as u64).sum();
    if n == 0 {
        return true;
    }
    let mut seen = vec![0u64; n.div_ceil(64) as usize];
    for t in streams {
        // `word` holds `seen[at]` with this stream's clocks so far in it.
        let (mut at, mut word) = (0usize, seen[0]);
        for block in t.values.chunks(64) {
            // 64 consecutive clocks (a solo thread's, say) fill 64 bits at
            // once, in one word or across two; the test vectorizes.
            let (start, run) = (block[0], block.iter().zip(0..));
            let rank = start.wrapping_sub(base);
            if block.len() == 64
                && rank <= n.saturating_sub(64)
                && run.fold(true, |ok, (&c, k)| ok & (c == start.wrapping_add(k)))
            {
                seen[at] = word;
                let (i, shift) = ((rank / 64) as usize, rank % 64);
                let masks = [(i, !0 << shift), (i + 1, (!0 >> 1) >> (63 - shift))];
                for (i, mask) in masks.into_iter().filter(|m| m.1 != 0) {
                    if seen[i] & mask != 0 {
                        return false;
                    }
                    seen[i] |= mask;
                }
                word = seen[at];
                continue;
            }
            for &clock in block {
                // Below `base` wraps past `n` too.
                let rank = clock.wrapping_sub(base);
                if rank >= n {
                    return false;
                }
                let i = (rank / 64) as usize;
                if i != at {
                    seen[at] = word;
                    (at, word) = (i, seen[i]);
                }
                let bit = 1u64 << (rank % 64);
                if word & bit != 0 {
                    return false;
                }
                word |= bit;
            }
        }
        seen[at] = word;
    }
    true
}

/// The permutation check by sorting a copy, run only once
/// [`is_permutation`] has failed: it names the first clock out of place,
/// the error text `validate()` has always returned.
#[cold]
fn sorted_permutation(dom: usize, streams: &[ThreadTrace], base: u64) -> Result<(), TraceError> {
    let mut clocks: Vec<u64> = streams
        .iter()
        .flat_map(|t| t.values.iter().copied())
        .collect();
    clocks.sort_unstable();
    for (expect, got) in clocks.iter().enumerate() {
        if *got != base + expect as u64 {
            return Err(TraceError::Corrupt(format!(
                "domain {dom}: DC clocks are not a permutation of {base}..{} \
                 (found {got} at rank {expect})",
                base + clocks.len() as u64
            )));
        }
    }
    Ok(())
}

/// Structural consistency of the cross-domain edges: anchors must name
/// recorded accesses, waits must name *other* existing domains, and no
/// wait may demand more accesses than its domain recorded.
fn check_edges(bundle: &TraceBundle) -> Result<(), TraceError> {
    if bundle.edges.is_empty() {
        return Ok(());
    }
    if bundle.domains <= 1 {
        return Err(TraceError::Corrupt(
            "cross-domain edges in a single-domain bundle".into(),
        ));
    }
    for (i, e) in bundle.edges.iter().enumerate() {
        if e.domain >= bundle.domains {
            return Err(TraceError::Corrupt(format!(
                "edge #{i} anchors in domain {} of {}",
                e.domain, bundle.domains
            )));
        }
        let anchor_len = if bundle.is_st() {
            bundle.st[e.domain as usize].len() as u64
        } else {
            if e.thread >= bundle.nthreads {
                return Err(TraceError::Corrupt(format!(
                    "edge #{i} anchors on thread {} of {}",
                    e.thread, bundle.nthreads
                )));
            }
            bundle.thread(e.domain, e.thread).len() as u64
        };
        if e.seq >= anchor_len {
            return Err(TraceError::Corrupt(format!(
                "edge #{i} anchors at access {} but its stream holds {anchor_len}",
                e.seq
            )));
        }
        for &(dom, count) in &e.waits {
            if dom >= bundle.domains || dom == e.domain {
                return Err(TraceError::Corrupt(format!(
                    "edge #{i} waits on domain {dom} (anchor domain {})",
                    e.domain
                )));
            }
            // A windowed bundle's domains completed `clock_base` more
            // accesses than the window retains; waits are absolute.
            let available = bundle.clock_base(dom) + bundle.domain_records(dom);
            if count == 0 || count > available {
                return Err(TraceError::Corrupt(format!(
                    "edge #{i} waits for {count} accesses in domain {dom} \
                     which recorded {available}"
                )));
            }
        }
    }
    Ok(())
}

/// The Ordering tier: would replay actually drive this order to
/// completion? Runs only on structurally sound bundles.
fn ordering(bundle: &TraceBundle, out: &mut VerifyReport) {
    // ST baton-stream purity: an ST bundle's order lives in the shared
    // streams; per-thread clock values mean the bundle was stitched from
    // mismatched recordings.
    out.checks += 1;
    if bundle.scheme == Scheme::St {
        let mut n = 0usize;
        for (i, t) in bundle.threads.iter().enumerate() {
            if !t.values.is_empty() {
                let (dom, tid) = (i / bundle.nthreads as usize, i % bundle.nthreads as usize);
                out.push_capped(
                    &mut n,
                    Diagnostic::error(
                        Tier::Ordering,
                        format!("domain {dom} thread {tid}"),
                        format!(
                            "ST bundle carries {} per-thread clock records \
                             (the baton stream is the only order source)",
                            t.values.len()
                        ),
                    ),
                );
            }
        }
    }

    // DC per-thread clock monotonicity: the permutation check cannot see a
    // permuted *stream* (same multiset); replay would deadlock on the
    // first out-of-order value (the thread waits for a clock it itself
    // owes later).
    out.checks += 1;
    if bundle.scheme == Scheme::Dc {
        let mut n = 0usize;
        for (i, t) in bundle.threads.iter().enumerate() {
            if let Some(w) = t.values.windows(2).position(|w| w[0] >= w[1]) {
                let (dom, tid) = (i / bundle.nthreads as usize, i % bundle.nthreads as usize);
                out.push_capped(
                    &mut n,
                    Diagnostic::error(
                        Tier::Ordering,
                        format!("domain {dom} thread {tid}"),
                        format!(
                            "DC clocks must be strictly increasing in program order \
                             ({} then {} at access {w}) — replay would deadlock",
                            t.values[w],
                            t.values[w + 1]
                        ),
                    ),
                );
            }
        }
    }

    // DE epoch reachability: replay admits an access once the domain
    // turnstile has completed `value` accesses; a value beyond
    // base + records − 1 can never be reached.
    out.checks += 1;
    if bundle.scheme == Scheme::De {
        let mut n = 0usize;
        for dom in 0..bundle.domains {
            let records = bundle.domain_records(dom);
            if records == 0 {
                continue;
            }
            let ceiling = bundle.clock_base(dom) + records - 1;
            for tid in 0..bundle.nthreads {
                let t = bundle.thread(dom, tid);
                if let Some(pos) = crate::trace::first_above(&t.values, ceiling) {
                    out.push_capped(
                        &mut n,
                        Diagnostic::error(
                            Tier::Ordering,
                            format!("domain {dom} thread {tid}"),
                            format!(
                                "epoch {} at access {pos} is unreachable: the domain \
                                 completes at most {ceiling} accesses before it",
                                t.values[pos]
                            ),
                        ),
                    );
                }
            }
        }
    }

    // Edge-graph acyclicity: a genuine recording snapshots other domains'
    // clocks strictly before publishing its own, so the edge constraints
    // always admit the recorded interleaving. A wait cycle means the
    // edges were tampered with — replay would deadlock. An edge-less
    // bundle skips the merge: nothing can form a cycle.
    out.checks += 1;
    if !bundle.edges.is_empty() && !bundle.linearize().consistent {
        out.diagnostics.push(Diagnostic::error(
            Tier::Ordering,
            "edges",
            "cross-domain edge waits form a cycle: no interleaving satisfies them \
             (replay would deadlock)",
        ));
    }

    // Flight-window well-formedness + DE epoch-floor consistency.
    out.checks += 1;
    if let Some(cp) = &bundle.checkpoint {
        if cp.window == 0 {
            out.diagnostics.push(Diagnostic::error(
                Tier::Ordering,
                "checkpoint",
                "flight window is 0 chunks/stream — a dump always retains at least one",
            ));
        }
        if !cp.floors.is_empty() && bundle.scheme != Scheme::De {
            out.diagnostics.push(Diagnostic::error(
                Tier::Ordering,
                "checkpoint",
                format!(
                    "epoch floors are DE provenance but the scheme is {}",
                    bundle.scheme
                ),
            ));
        }
        if bundle.scheme == Scheme::De && !cp.floors.is_empty() {
            let mut n = 0usize;
            for dom in 0..bundle.domains {
                let floor = cp.floors[dom as usize];
                let base = cp.base_of(dom);
                if floor < base + bundle.domain_records(dom) {
                    out.push_capped(
                        &mut n,
                        Diagnostic::error(
                            Tier::Ordering,
                            format!("domain {dom}"),
                            format!(
                                "epoch floor {floor} below the window's last clock \
                                 ({base} evicted + {} retained): the trackers cannot \
                                 have flushed past records they had not seen",
                                bundle.domain_records(dom)
                            ),
                        ),
                    );
                }
                for tid in 0..bundle.nthreads {
                    let t = bundle.thread(dom, tid);
                    if let Some(pos) = t.values.iter().position(|&v| v >= floor) {
                        out.push_capped(
                            &mut n,
                            Diagnostic::error(
                                Tier::Ordering,
                                format!("domain {dom} thread {tid}"),
                                format!(
                                    "epoch {} at access {pos} is not below the \
                                     domain's dump-time clock floor {floor}",
                                    t.values[pos]
                                ),
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// The Plan tier: every access must have been recorded in the domain the
/// bundle's site map ([`TraceBundle::partition`]) routes its site to, and,
/// under a closed plan, only at a site the plan gates. A mismatched plan
/// stamp silently reroutes replay's gates — the access would wait on the
/// wrong turnstile, or bypass the gate altogether.
fn plan_agreement(bundle: &TraceBundle, out: &mut VerifyReport) {
    out.checks += 1;
    let plan = bundle.partition();
    if (bundle.domains <= 1 && !plan.is_closed()) || !bundle.has_validation() {
        return;
    }
    let label = if bundle.plan.is_some() {
        "stamped plan"
    } else {
        "legacy-modulo partition"
    };
    let mut n = 0usize;
    let mut check_stream = |dom: u32, who: String, sites: &[u64], out: &mut VerifyReport| {
        for (i, &raw) in sites.iter().enumerate() {
            let routed = match plan.route(SiteId(raw)) {
                Some(want) if want == dom => continue,
                Some(want) => format!("routes it to domain {want}"),
                None => "leaves it ungated".into(),
            };
            out.push_capped(
                &mut n,
                Diagnostic::error(
                    Tier::Plan,
                    format!("{who} access {i}"),
                    format!("site {raw:#x} recorded in domain {dom} but the {label} {routed}"),
                ),
            );
        }
    };
    if bundle.is_st() {
        for (dom, st) in bundle.st.iter().enumerate() {
            if let Some(sites) = &st.sites {
                check_stream(dom as u32, format!("domain {dom}"), sites, out);
            }
        }
    } else {
        for dom in 0..bundle.domains {
            for tid in 0..bundle.nthreads {
                if let Some(sites) = &bundle.thread(dom, tid).sites {
                    check_stream(dom, format!("domain {dom} thread {tid}"), sites, out);
                }
            }
        }
    }
}

/// Deterministic digest over the bundle: header, every stream (values,
/// sites, kinds, each a [`Digest::column`]), the plan's sorted
/// assignments, every edge, and the checkpoint, one [`Digest`] word per
/// other field. Allocation-free.
fn certificate(bundle: &TraceBundle) -> Certificate {
    let mut h = Digest::new();
    h.u64(u64::from(bundle.scheme.code()));
    h.u64(u64::from(bundle.nthreads));
    h.u64(u64::from(bundle.domains));
    for t in &bundle.threads {
        h.u64(t.values.len() as u64);
        h.column(t.values.iter().copied());
        hash_columns(&mut h, &t.sites, &t.kinds);
    }
    for st in &bundle.st {
        h.u64(st.tids.len() as u64);
        h.column(st.tids.iter().map(|&tid| u64::from(tid)));
        hash_columns(&mut h, &st.sites, &st.kinds);
    }
    match &bundle.plan {
        Some(plan) => {
            h.u64(if plan.is_closed() { 2 } else { 1 });
            h.u64(u64::from(plan.domains()));
            for (site, dom) in plan.sorted_assignments() {
                h.u64(site);
                h.u64(u64::from(dom));
            }
        }
        None => h.u64(0),
    }
    h.u64(bundle.edges.len() as u64);
    for e in &bundle.edges {
        h.u64(u64::from(e.domain));
        h.u64(u64::from(e.thread));
        h.u64(e.seq);
        h.u64(e.waits.len() as u64);
        for &(dom, count) in &e.waits {
            h.u64(u64::from(dom));
            h.u64(count);
        }
    }
    match &bundle.checkpoint {
        Some(cp) => {
            h.u64(1);
            h.u64(u64::from(cp.trigger.code()));
            h.u64(u64::from(cp.window));
            for &b in cp.base.iter().chain(&cp.floors) {
                h.u64(b);
            }
        }
        None => h.u64(0),
    }
    Certificate {
        digest: h.finish(),
        detail: format!(
            "scheme={} threads={} domains={} records={} edges={}{}",
            bundle.scheme,
            bundle.nthreads,
            bundle.domains,
            bundle.total_records(),
            bundle.edges.len(),
            if bundle.checkpoint.is_some() {
                " windowed"
            } else {
                ""
            }
        ),
    }
}

fn hash_columns(h: &mut Digest, sites: &Option<Vec<u64>>, kinds: &Option<Vec<u8>>) {
    match sites {
        Some(s) => {
            h.u64(1);
            h.column(s.iter().copied());
        }
        None => h.u64(0),
    }
    match kinds {
        Some(k) => {
            h.u64(1);
            h.bytes(k);
        }
        None => h.u64(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::DomainPlan;
    use crate::site::AccessKind;
    use crate::trace::{Checkpoint, CrossDomainEdge, DumpTrigger, StTrace, ThreadTrace};

    fn dc_bundle() -> TraceBundle {
        TraceBundle {
            plan: None,
            edges: vec![],
            checkpoint: None,
            scheme: Scheme::Dc,
            nthreads: 2,
            domains: 1,
            threads: vec![
                ThreadTrace {
                    values: vec![0, 3],
                    sites: Some(vec![1, 1]),
                    kinds: Some(vec![0, 1]),
                },
                ThreadTrace {
                    values: vec![1, 2],
                    sites: Some(vec![1, 1]),
                    kinds: Some(vec![0, 0]),
                },
            ],
            st: vec![],
        }
    }

    #[test]
    fn clean_bundle_gets_a_stable_certificate() {
        let v = Verifier::new();
        let a = v.verify(&dc_bundle());
        let b = v.verify(&dc_bundle());
        assert!(a.is_clean(), "{a}");
        assert_eq!(a.certificate, b.certificate);
        assert!(a.certificate.is_some());
        // Any content change moves the digest.
        let mut tweaked = dc_bundle();
        tweaked.threads[0].sites = Some(vec![1, 2]);
        let c = v.verify(&tweaked);
        assert!(c.is_clean());
        assert_ne!(a.certificate, c.certificate);
    }

    #[test]
    fn digest_known_answer() {
        // Three records in one DC domain: thread 0 at clocks 0 and 2 on
        // site 7, thread 1 at clock 1 on site 9.
        let bundle = TraceBundle {
            plan: None,
            edges: vec![],
            checkpoint: None,
            scheme: Scheme::Dc,
            nthreads: 2,
            domains: 1,
            threads: vec![
                ThreadTrace {
                    values: vec![0, 2],
                    sites: Some(vec![7, 7]),
                    kinds: Some(vec![1, 0]),
                },
                ThreadTrace {
                    values: vec![1],
                    sites: Some(vec![9]),
                    kinds: Some(vec![2]),
                },
            ],
            st: vec![],
        };
        // Its canonical fields: a word each, and each column through the
        // lanes.
        let mut h = Digest::new();
        [1, 2, 1].into_iter().for_each(|w| h.u64(w)); // scheme, nthreads, domains
        h.u64(2); // thread 0: length, values, sites, kinds [1, 0]
        h.column([0, 2]);
        h.u64(1);
        h.column([7, 7]);
        h.u64(1);
        h.column([0x01]);
        h.u64(1); // thread 1
        h.column([1]);
        h.u64(1);
        h.column([9]);
        h.u64(1);
        h.column([2]);
        [0, 0, 0].into_iter().for_each(|w| h.u64(w)); // no plan, no edges, no checkpoint
        assert_eq!(h.finish(), 0x080d_2067_6e3e_9235);
        let report = Verifier::new().verify(&bundle);
        assert_eq!(
            report.certificate.expect("clean").to_string(),
            "reomp-cert-v3 080d20676e3e9235 scheme=dc threads=2 domains=1 records=3 edges=0"
        );

        // Five words through the lanes: the fifth joins the first's lane,
        // and the lanes enter in rotation, the next one to fill first.
        let lane = |words: &[u64]| {
            let mut lane = Digest::new();
            words.iter().for_each(|&w| lane.u64(w));
            lane.finish()
        };
        let (mut lanes, mut folded) = (Digest::new(), Digest::new());
        lanes.column([1, 2, 3, 4, 5]);
        let lanes_in_turn = [lane(&[2]), lane(&[3]), lane(&[4]), lane(&[1, 5])];
        lanes_in_turn.into_iter().for_each(|w| folded.u64(w));
        assert_eq!(lanes.finish(), folded.finish());

        // A byte column packs little-endian, its tail zero-padded.
        let (mut packed, mut words) = (Digest::new(), Digest::new());
        packed.bytes(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        words.column([0x0807_0605_0403_0201, 9]);
        assert_eq!(packed.finish(), words.finish());
    }

    /// A DE bundle with every optional section: an open plan, an edge, a
    /// checkpoint with floors, and an 11-record kinds column (one packed
    /// word and a 3-byte tail).
    fn sectioned_bundle() -> TraceBundle {
        let mut plan = DomainPlan::new(2);
        plan.set(SiteId(1), 0);
        plan.set(SiteId(2), 1);
        TraceBundle {
            plan: Some(plan),
            edges: vec![CrossDomainEdge {
                domain: 1,
                thread: 0,
                seq: 0,
                waits: vec![(0, 1)],
            }],
            checkpoint: Some(Checkpoint {
                base: vec![0, 0],
                floors: vec![0, 0],
                window: 4,
                trigger: DumpTrigger::Manual,
            }),
            scheme: Scheme::De,
            nthreads: 1,
            domains: 2,
            threads: vec![
                ThreadTrace {
                    values: (0..11).collect(),
                    sites: Some(vec![1; 11]),
                    kinds: Some(vec![0; 11]),
                },
                ThreadTrace {
                    values: vec![0],
                    sites: Some(vec![2]),
                    kinds: Some(vec![1]),
                },
            ],
            st: vec![],
        }
    }

    #[test]
    fn digest_moves_on_every_single_field_change() {
        // The digest does not depend on the verdict, so `certificate` is
        // called directly: some mutations below are not valid bundles.
        type Mutation = fn(&mut TraceBundle);
        let cases: [(&str, Mutation); 23] = [
            ("value", |b| b.threads[0].values[3] = 99),
            ("site", |b| b.threads[1].sites = Some(vec![3])),
            ("sites column absent", |b| b.threads[1].sites = None),
            ("kinds column absent", |b| b.threads[1].kinds = None),
            ("scheme", |b| b.scheme = Scheme::Dc),
            ("nthreads", |b| b.nthreads = 2),
            ("domains", |b| b.domains = 3),
            ("plan closed", |b| {
                b.plan = b.plan.take().map(DomainPlan::closed)
            }),
            ("plan absent", |b| b.plan = None),
            ("plan assignment", |b| {
                b.plan.as_mut().unwrap().set(SiteId(2), 0);
            }),
            ("plan domains", |b| {
                let mut plan = DomainPlan::new(3);
                plan.set(SiteId(1), 0);
                plan.set(SiteId(2), 1);
                b.plan = Some(plan);
            }),
            ("edges absent", |b| b.edges.clear()),
            ("edge domain", |b| b.edges[0].domain = 0),
            ("edge thread", |b| b.edges[0].thread = 1),
            ("edge seq", |b| b.edges[0].seq = 1),
            ("edge wait domain", |b| b.edges[0].waits[0].0 = 1),
            ("edge wait count", |b| b.edges[0].waits[0].1 = 2),
            ("edge waits absent", |b| b.edges[0].waits.clear()),
            ("checkpoint absent", |b| b.checkpoint = None),
            ("checkpoint trigger", |b| {
                b.checkpoint.as_mut().unwrap().trigger = DumpTrigger::Panic;
            }),
            ("checkpoint window", |b| {
                b.checkpoint.as_mut().unwrap().window = 5
            }),
            ("checkpoint base", |b| {
                b.checkpoint.as_mut().unwrap().base[1] = 1
            }),
            ("checkpoint floor", |b| {
                b.checkpoint.as_mut().unwrap().floors[0] = 1
            }),
        ];
        let base = certificate(&sectioned_bundle()).digest;
        let moved = |what: String, b: &TraceBundle| {
            assert_ne!(certificate(b).digest, base, "{what} left the digest");
        };
        for (what, mutate) in cases {
            let mut b = sectioned_bundle();
            mutate(&mut b);
            moved(what.to_string(), &b);
        }
        // Every byte position of the packed word, then of the tail word.
        for at in 0..11 {
            let mut b = sectioned_bundle();
            b.threads[0].kinds.as_mut().unwrap()[at] = AccessKind::Critical.code();
            moved(format!("kind {at}"), &b);
        }

        // The ST tid column.
        let st = |tids: Vec<u32>| TraceBundle {
            plan: None,
            edges: vec![],
            checkpoint: None,
            scheme: Scheme::St,
            nthreads: 2,
            domains: 1,
            threads: vec![],
            st: vec![StTrace {
                tids,
                sites: None,
                kinds: None,
            }],
        };
        assert_ne!(
            certificate(&st(vec![0, 1, 0])).digest,
            certificate(&st(vec![0, 0, 1])).digest
        );
    }

    #[test]
    fn structural_matches_validate() {
        let mut b = dc_bundle();
        b.threads.pop();
        let verr = b.validate().unwrap_err().to_string();
        let report = Verifier::new().verify(&b);
        assert_eq!(report.worst_tier(), Some(Tier::Structural));
        assert!(
            verr.contains(&report.diagnostics[0].message),
            "{verr} vs {}",
            report.diagnostics[0].message
        );
        assert!(report.certificate.is_none());
    }

    #[test]
    fn permuted_dc_stream_is_an_ordering_error() {
        // Swap one thread's values: same multiset per domain (structural
        // passes) but the stream is no longer monotone.
        let mut b = dc_bundle();
        b.threads[1].values = vec![2, 1];
        b.validate().unwrap();
        let report = Verifier::new().verify(&b);
        assert_eq!(report.worst_tier(), Some(Tier::Ordering), "{report}");
        assert!(report.certificate.is_none());
    }

    #[test]
    fn st_bundle_with_thread_values_is_an_ordering_error() {
        let mut b = dc_bundle();
        b.scheme = Scheme::St;
        b.st = vec![crate::trace::StTrace {
            tids: vec![0, 1, 0, 1],
            sites: Some(vec![1; 4]),
            kinds: Some(vec![0; 4]),
        }];
        // Leave the (now bogus) per-thread clock values in place.
        let report = Verifier::new().verify(&b);
        assert_eq!(report.worst_tier(), Some(Tier::Ordering), "{report}");
    }

    #[test]
    fn unreachable_de_epoch_is_an_ordering_error() {
        let mut b = dc_bundle();
        b.scheme = Scheme::De;
        // 4 records; epoch 9 can never be admitted.
        b.threads[0].values = vec![0, 9];
        let report = Verifier::new().verify(&b);
        assert_eq!(report.worst_tier(), Some(Tier::Ordering), "{report}");
    }

    #[test]
    fn cyclic_edges_are_an_ordering_error() {
        let mut b = TraceBundle {
            domains: 2,
            threads: vec![
                ThreadTrace {
                    values: vec![0, 1],
                    sites: None,
                    kinds: None,
                },
                ThreadTrace::default(),
                ThreadTrace {
                    values: vec![0, 1],
                    sites: None,
                    kinds: None,
                },
                ThreadTrace::default(),
            ],
            ..dc_bundle()
        };
        b.edges = vec![
            CrossDomainEdge {
                domain: 0,
                thread: 0,
                seq: 0,
                waits: vec![(1, 2)],
            },
            CrossDomainEdge {
                domain: 1,
                thread: 0,
                seq: 0,
                waits: vec![(0, 2)],
            },
        ];
        b.validate().unwrap();
        let report = Verifier::new().verify(&b);
        assert_eq!(report.worst_tier(), Some(Tier::Ordering), "{report}");
    }

    #[test]
    fn zero_window_checkpoint_is_an_ordering_error() {
        let mut b = dc_bundle();
        b.checkpoint = Some(Checkpoint {
            base: vec![0],
            floors: vec![],
            window: 0,
            trigger: DumpTrigger::Manual,
        });
        let report = Verifier::new().verify(&b);
        assert_eq!(report.worst_tier(), Some(Tier::Ordering), "{report}");
    }

    #[test]
    fn mismatched_plan_stamp_is_a_plan_error() {
        // Two domains, validation columns present, every access's site
        // routed by the stamped plan to domain 0 — but one access was
        // recorded in domain 1.
        let mut plan = DomainPlan::new(2);
        plan.set(SiteId(1), 0);
        plan.set(SiteId(2), 1);
        let b = TraceBundle {
            plan: Some(plan),
            edges: vec![],
            checkpoint: None,
            scheme: Scheme::Dc,
            nthreads: 1,
            domains: 2,
            threads: vec![
                ThreadTrace {
                    values: vec![0],
                    sites: Some(vec![1]),
                    kinds: Some(vec![AccessKind::Store.code()]),
                },
                ThreadTrace {
                    values: vec![0],
                    sites: Some(vec![1]), // site 1 belongs in domain 0!
                    kinds: Some(vec![AccessKind::Store.code()]),
                },
            ],
            st: vec![],
        };
        b.validate().unwrap();
        let report = Verifier::new().verify(&b);
        assert_eq!(report.worst_tier(), Some(Tier::Plan), "{report}");
        let diag = report.errors().next().unwrap();
        assert_eq!(diag.tier, Tier::Plan);
        assert!(diag.message.contains("domain 0"), "{diag}");
    }

    #[test]
    fn diagnostics_are_capped_per_check() {
        // 100 mismatched accesses must not yield 100 diagnostics.
        let sites: Vec<u64> = vec![2; 100]; // site 2 → domain 0 under %2
        let values: Vec<u64> = (0..100).collect();
        let kinds = vec![AccessKind::Store.code(); 100];
        let b = TraceBundle {
            plan: None,
            edges: vec![],
            checkpoint: None,
            scheme: Scheme::Dc,
            nthreads: 1,
            domains: 2,
            threads: vec![
                ThreadTrace {
                    values: vec![],
                    sites: Some(vec![]),
                    kinds: Some(vec![]),
                },
                ThreadTrace {
                    values,
                    sites: Some(sites),
                    kinds: Some(kinds),
                },
            ],
            st: vec![],
        };
        b.validate().unwrap();
        let report = Verifier::new().verify(&b);
        assert_eq!(report.worst_tier(), Some(Tier::Plan));
        assert!(
            report.diagnostics.len() <= MAX_DIAGS_PER_CHECK + 1,
            "{} diagnostics",
            report.diagnostics.len()
        );
    }

    /// The DC permutation check as it stood before the set pass: sort a
    /// copy of each domain's clocks and compare rank by rank. The set pass
    /// must accept exactly what this accepts and fail with its text.
    fn sorted_reference(b: &TraceBundle) -> Result<(), TraceError> {
        for (dom, chunk) in b.threads.chunks(b.nthreads as usize).enumerate() {
            let base = b.clock_base(dom as u32);
            let mut clocks: Vec<u64> = chunk
                .iter()
                .flat_map(|t| t.values.iter().copied())
                .collect();
            clocks.sort_unstable();
            for (expect, got) in clocks.iter().enumerate() {
                if *got != base + expect as u64 {
                    return Err(TraceError::Corrupt(format!(
                        "domain {dom}: DC clocks are not a permutation of {base}..{} \
                         (found {got} at rank {expect})",
                        base + clocks.len() as u64
                    )));
                }
            }
        }
        Ok(())
    }

    /// A DC bundle of `nthreads` threads whose domain `d` holds the
    /// `(thread, clock)` records `domains[d]`, over a checkpoint with the
    /// given bases.
    fn dc_window(nthreads: u32, bases: Vec<u64>, domains: &[Vec<(u32, u64)>]) -> TraceBundle {
        let mut threads = vec![ThreadTrace::default(); domains.len() * nthreads as usize];
        for (dom, clocks) in domains.iter().enumerate() {
            for &(tid, clock) in clocks {
                threads[dom * nthreads as usize + tid as usize]
                    .values
                    .push(clock);
            }
        }
        TraceBundle {
            plan: None,
            edges: vec![],
            checkpoint: Some(Checkpoint {
                base: bases,
                floors: vec![],
                window: 1,
                trigger: DumpTrigger::Manual,
            }),
            scheme: Scheme::Dc,
            nthreads,
            domains: domains.len() as u32,
            threads,
            st: vec![],
        }
    }

    #[test]
    fn permutation_set_pass_agrees_with_the_sort() {
        // Random clock multisets: a permutation of base..base+n dealt to
        // 1–4 threads, then 0–3 defects — a duplicate, a gap, a clock
        // below the base or past the end, one clock dropped or added.
        let mut state = 0x5eed_u64;
        let mut rng = |bound: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            crate::site::splitmix64(state) % bound.max(1)
        };
        let (mut accepted, mut rejected) = (0, 0);
        for case in 0..6_000 {
            let nthreads = 1 + rng(4) as u32;
            let ndomains = 1 + rng(2) as usize;
            let mut bases = Vec::new();
            let mut domains = Vec::new();
            for _ in 0..ndomains {
                let base = match rng(4) {
                    0 => 0,
                    1 => rng(1_000),
                    2 => u64::MAX - 1_000 - rng(1_000),
                    _ => rng(1 << 40),
                };
                let n = if rng(2) == 0 { rng(10) } else { rng(300) };
                let mut clocks: Vec<(u32, u64)> = (base..base + n)
                    .map(|c| (rng(u64::from(nthreads)) as u32, c))
                    .collect();
                for _ in 0..rng(4) {
                    let len = clocks.len() as u64;
                    let at = rng(len) as usize;
                    let tid = rng(u64::from(nthreads)) as u32;
                    match rng(6) {
                        0 if len > 1 => clocks[at].1 = clocks[rng(len) as usize].1,
                        1 if len > 0 => clocks[at].1 = base + len + rng(3),
                        2 if len > 0 => clocks[at].1 = base.wrapping_sub(1 + rng(3)),
                        3 if len > 0 => {
                            clocks.remove(at);
                        }
                        4 => clocks.push((tid, base + rng(len + 2))),
                        _ => {}
                    }
                }
                // Two thirds of the cases keep each thread's clocks
                // increasing, as a recording does, half of those dealt in
                // runs of up to 200 consecutive clocks per thread (blocks
                // of 64 take the set pass's fast path); the rest deal them
                // in any order.
                match rng(3) {
                    0 => clocks.sort_by_key(|&(_, c)| c),
                    1 => {
                        clocks.sort_by_key(|&(_, c)| c);
                        let (mut left, mut tid) = (0, 0);
                        for clock in &mut clocks {
                            if left == 0 {
                                (left, tid) = (1 + rng(200), rng(u64::from(nthreads)) as u32);
                            }
                            (clock.0, left) = (tid, left - 1);
                        }
                    }
                    _ => {
                        for i in (1..clocks.len()).rev() {
                            clocks.swap(i, rng(i as u64 + 1) as usize);
                        }
                    }
                }
                bases.push(base);
                domains.push(clocks);
            }
            let b = dc_window(nthreads, bases, &domains);
            let want = sorted_reference(&b).map_err(|e| e.to_string());
            let got = structural(&b).map_err(|e| e.to_string());
            assert_eq!(got, want, "case {case}: {b:?}");
            if want.is_ok() {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
        assert!(
            accepted > 1_000 && rejected > 1_000,
            "{accepted} / {rejected}"
        );

        // A block of 64 consecutive clocks over a bit set before it, over
        // another block, and across two set words.
        let deal = |ranges: &[std::ops::Range<u64>]| -> Vec<(u32, u64)> {
            let threads = ranges.iter().enumerate();
            threads
                .flat_map(|(tid, r)| r.clone().map(move |c| (tid as u32, c)))
                .collect()
        };
        for (ranges, ok) in [
            (vec![5..6, 0..64], false),
            (vec![0..64, 32..96, 96..128], false),
            (vec![0..10, 10..138], true),
            (vec![64..128, 0..64], true),
        ] {
            let b = dc_window(ranges.len() as u32, vec![0], &[deal(&ranges)]);
            assert_eq!(structural(&b).is_ok(), ok, "{ranges:?}");
            assert_eq!(sorted_reference(&b).is_ok(), ok, "{ranges:?}");
        }
    }

    #[test]
    fn forged_checkpoint_base_is_corrupt_not_a_panic() {
        // Bases whose `base + records` wraps: DC (the permutation bound),
        // DE (the epoch ceiling and the floor check) and an edge wait
        // (the available count) must all stop at the structural tier.
        let dc = dc_window(1, vec![u64::MAX], &[vec![(0, 0), (0, 1)]]);
        let mut de = dc_window(1, vec![u64::MAX - 1], &[vec![(0, 0), (0, 1)]]);
        de.scheme = Scheme::De;
        de.checkpoint.as_mut().unwrap().floors = vec![u64::MAX];
        let mut edged = dc_window(1, vec![0, u64::MAX], &[vec![(0, 0)], vec![(0, 5)]]);
        edged.edges = vec![CrossDomainEdge {
            domain: 0,
            thread: 0,
            seq: 0,
            waits: vec![(1, 1)],
        }];
        for (what, b) in [("dc", &dc), ("de", &de), ("edge", &edged)] {
            let err = b.validate().unwrap_err();
            assert!(
                matches!(&err, TraceError::Corrupt(m) if m.contains("overflows the clock")),
                "{what}: {err}"
            );
            let report = Verifier::new().verify(b);
            assert_eq!(
                report.worst_tier(),
                Some(Tier::Structural),
                "{what}: {report}"
            );
            assert!(report.certificate.is_none());
        }
        // The largest base that does not wrap is a window like any other.
        let n = 3;
        let base = u64::MAX - n;
        let widest = dc_window(1, vec![base], &[(base..base + n).map(|c| (0, c)).collect()]);
        assert!(Verifier::new().verify(&widest).is_clean());
    }

    #[test]
    fn tier_ordering_for_exit_codes() {
        assert!(Tier::Structural < Tier::Ordering);
        assert!(Tier::Ordering < Tier::Plan);
    }
}
