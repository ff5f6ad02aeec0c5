//! # reomp-core — distributed order recording for record-and-replay
//!
//! This crate implements the three shared-memory order-recording schemes of
//! the CLUSTER 2024 paper *"Distributed Order Recording Techniques for
//! Efficient Record-and-Replay of Multi-threaded Programs"*:
//!
//! * **ST** — *serialized thread-ID recording* (the traditional baseline,
//!   paper §IV-A): the order of thread IDs entering shared-memory-access
//!   regions is appended to a single shared trace; replay hands a baton from
//!   thread to thread.
//! * **DC** — *distributed clock recording* (§IV-B): every gate passage is
//!   stamped with a global logical clock and written to a **per-thread**
//!   trace, enabling parallel trace I/O and I/O overlap; replay admits the
//!   thread whose clock equals a shared `next_clock` turnstile.
//! * **DE** — *distributed epoch recording* (§IV-D): accesses that may be
//!   reordered without changing program results (Condition 1: runs of loads,
//!   or runs of stores except the last) share an *epoch* = `clock − X_C`;
//!   replay admits every access whose epoch is ≤ the number of completed
//!   accesses, so same-epoch accesses execute **concurrently**.
//!
//! The crate is runtime-agnostic: a threading runtime (such as the `ompr`
//! crate in this workspace) wraps each shared-memory access region in
//! [`ThreadCtx::gate`], which corresponds exactly to the paper's
//! `gate_in`/`gate_out` instrumentation functions (Figure 1).
//!
//! ## Quick example
//!
//! ```
//! use reomp_core::{Session, Scheme, SiteId, AccessKind};
//! use std::sync::Arc;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let site = SiteId::from_label("examples.rs:counter");
//! let shared = Arc::new(AtomicU64::new(0));
//!
//! // Record a two-thread run.
//! let session = Session::record(Scheme::De, 2);
//! std::thread::scope(|s| {
//!     for tid in 0..2u32 {
//!         let ctx = session.register_thread(tid);
//!         let shared = Arc::clone(&shared);
//!         s.spawn(move || {
//!             for _ in 0..4 {
//!                 // A benign racy increment: a gated load then a gated store.
//!                 let v = ctx.gate(site, AccessKind::Load, || {
//!                     shared.load(Ordering::Relaxed)
//!                 });
//!                 ctx.gate(site, AccessKind::Store, || {
//!                     shared.store(v + 1, Ordering::Relaxed)
//!                 });
//!             }
//!         });
//!     }
//! });
//! let report = session.finish().unwrap();
//! let bundle = report.bundle.expect("record mode produces a trace bundle");
//!
//! // Replay it: the interleaving of gated accesses is reproduced.
//! let replay = Session::replay(bundle).unwrap();
//! # let shared2 = Arc::new(AtomicU64::new(0));
//! std::thread::scope(|s| {
//!     for tid in 0..2u32 {
//!         let ctx = replay.register_thread(tid);
//!         # let shared2 = Arc::clone(&shared2);
//!         s.spawn(move || {
//!             for _ in 0..4 {
//!                 let v = ctx.gate(site, AccessKind::Load, || {
//!                     shared2.load(Ordering::Relaxed)
//!                 });
//!                 ctx.gate(site, AccessKind::Store, || {
//!                     shared2.store(v + 1, Ordering::Relaxed)
//!                 });
//!             }
//!         });
//!     }
//! });
//! replay.finish().unwrap();
//! ```
//!
//! ## Module map
//!
//! | module | paper artifact |
//! |--------|----------------|
//! | [`site`] | race-instance hashes used as thread lock IDs (§III) |
//! | [`sync`] | the baton lock of ST replay (Fig. 4/6) and spin-wait policy |
//! | [`clock`] | `global_clock` and the `next_clock` turnstile (Fig. 5) |
//! | [`history`] | last-N access ring: replay divergence history and the §IV-D `X_C` audit |
//! | [`epoch`] | epoch assignment incl. the store fix-up rule of Table V |
//! | [`plan`] | race-report-driven site → gate-domain assignment ([`DomainPlan`]) |
//! | [`trace`] | per-thread and shared trace representations (Fig. 3) |
//! | [`codec`] | binary encoding of record files: delta varints, a `(site, kind)` label dictionary, the streaming chunk frame (version 1 files: read-only) |
//! | [`store`] | record-file storage: one trace layer (naming, manifest, save, streaming sink, load) over a blob backend — a directory with one file per thread, or memory |
//! | [`flight`] | bounded in-situ recording: ring-retained streams, checkpointed windowed dumps |
//! | [`gate`] | `gate_in`/`gate_out` engines for all scheme × mode pairs |
//! | [`session`] | run orchestration, env-var mode switching (§V) |
//! | [`stats`] | counters behind Table VI and the Fig. 20 epoch histogram |
//! | [`analysis`] | trace summaries, timelines, and diffing (debug tooling) |
//! | [`verify`] | static trace verification: tiered soundness diagnostics + replayability certificates |

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod analysis;
pub mod clock;
pub mod codec;
pub mod epoch;
pub mod error;
pub mod flight;
pub mod gate;
pub mod history;
pub mod plan;
pub mod session;
pub(crate) mod shim;
pub mod site;
pub mod stats;
pub mod store;
pub mod sync;
pub mod trace;
pub mod verify;

pub use epoch::EpochPolicy;
pub use error::{Divergence, ReplayError, TraceError};
pub use flight::{FlightRecorder, FlightSink};
pub use plan::DomainPlan;
pub use session::{
    install_panic_dump, Mode, Scheme, Session, SessionConfig, SessionReport, ThreadCtx,
};
pub use site::{AccessKind, SiteId};
pub use stats::{EpochHistogram, StatsSnapshot};
pub use store::{
    DirStore, IoReport, MemStore, RecordOptions, RecordSink, StreamingTraceStore, TraceStore,
};
pub use trace::{Checkpoint, CrossDomainEdge, DumpTrigger, TraceBundle};
pub use verify::{Certificate, Diagnostic, Severity, Tier, Verifier, VerifyReport};
