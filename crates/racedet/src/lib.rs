//! # racedet — happens-before data-race detection for the ReOMP toolflow
//!
//! Step (1) of the paper's toolflow (Fig. 2) runs the application under
//! ThreadSanitizer to find data races; the report's call stacks are hashed
//! into *race instance* IDs that decide which instructions get gated (§III).
//!
//! This crate is that step for the `ompr` runtime: [`Detector`] implements
//! [`ompr::EventSink`], consumes the runtime's fork/join, lock, barrier,
//! and memory events, and runs the **FastTrack** algorithm (Flanagan &
//! Freund, PLDI'09 — the same epoch-based happens-before analysis TSan v2
//! uses) to find conflicting unsynchronized accesses. The resulting
//! [`RaceReport`] yields the set of racy [`SiteId`]s, which becomes the
//! session's site map (`SessionConfig::plan`, a [`DomainPlan`]): the
//! *instrumentation plan* ([`instrumentation_plan`]) is the closed
//! one-domain plan that gates exactly those sites, and [`DomainPlanner`]
//! spreads them over gate domains — racing/aliased sites co-locate in one
//! domain, the remaining sites are load-balanced by observed gate
//! frequency.
//!
//! A deliberately simple [`oracle`] (full vector-clock history comparison)
//! is provided for differential testing.
//!
//! ```
//! use ompr::Runtime;
//! use racedet::Detector;
//! use reomp_core::Session;
//! use std::sync::Arc;
//!
//! let detector = Arc::new(Detector::new(2));
//! let session = Session::passthrough(2);
//! let rt = Runtime::new(session).with_sink(detector.clone());
//!
//! let cell = ompr::RacyCell::new("doc:flag", 0u64);
//! rt.parallel(|w| {
//!     w.racy_store(&cell, u64::from(w.tid())); // write-write race
//! });
//!
//! let report = detector.report();
//! assert!(report.racy_sites().contains(&cell.site()));
//! ```

#![warn(missing_docs)]

pub mod detector;
pub mod fasttrack;
pub mod offline;
pub mod oracle;
pub mod plan;
pub mod report;
pub mod vc;

pub use detector::Detector;
pub use offline::{
    check_plan_soundness, offline_report, plan_soundness_diagnostics, OfflineError, PlanSoundness,
    PlanViolation,
};
pub use plan::{domain_plan, DomainPlanner};
pub use report::{RaceInfo, RaceReport};
pub use vc::VectorClock;

use reomp_core::{DomainPlan, SiteId};

/// Build an instrumentation plan from a race report plus the always-gated
/// construct sites (criticals, atomics, reductions are identifiable
/// statically, §III): the closed one-domain plan that gates exactly those
/// sites and lets every other site bypass the recorder.
#[must_use]
pub fn instrumentation_plan(
    report: &RaceReport,
    always_gated: impl IntoIterator<Item = SiteId>,
) -> DomainPlan {
    let sites = report.racy_sites().into_iter().chain(always_gated);
    DomainPlan::with_assignments(1, sites.map(|site| (site, 0))).closed()
}
