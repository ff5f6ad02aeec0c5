//! # reomp-model — exhaustive schedule-space model checking of the gate primitives
//!
//! This crate drives the **real** `reomp-core` synchronization primitives —
//! [`BatonLock`](reomp_core::sync::BatonLock), the
//! [`Turnstile`](reomp_core::clock::Turnstile),
//! [`SpinWait`](reomp_core::sync::SpinWait), the DE epoch/floor machinery
//! and the [`FlightRecorder`](reomp_core::FlightRecorder) — under the
//! vendored `shuttle` model checker. The `reomp_core` this crate links is
//! `crates/reomp-core-model`: the same sources built with
//! `--cfg reomp_model`, which routes every atomic, mutex, `Instant`, yield
//! and spin hint through `crate::shim` onto shuttle's instrumented types
//! (every other crate links the plain build). The harnesses here then
//! explore *every* interleaving of small 2–3-thread
//! scenarios (with sleep-set/DPOR-lite reduction), including the
//! store-buffer reorderings that `Relaxed` atomics permit.
//!
//! Three kinds of artifact live here:
//!
//! * [`harness`] — the checkable scenarios, each a function from a
//!   [`shuttle::Config`] to a [`shuttle::Report`] whose `violation` is
//!   `None` on a correct primitive. Violations carry a replayable
//!   schedule-prefix witness.
//! * [`mutants`] — deliberately broken variants of the primitives
//!   (flipped `Ordering`s, a release that stores instead of swapping, an
//!   edge snapshot taken after publish, a dump that drops the state lock
//!   between chunks). The mutation sweep in `tests/model_check.rs` proves
//!   every seeded defect is caught by at least one harness — the
//!   harnesses' sensitivity check.
//! * [`audit`] — the memory-ordering lint: a source scan over
//!   `reomp-core` and `ompr` that fails if any non-test
//!   `Ordering::Relaxed` (or `unsafe`) site lacks an adjacent
//!   justification comment.

pub mod audit;
pub mod harness;
pub mod mutants;

pub use shuttle;
