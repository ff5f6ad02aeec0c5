//! Backend seam for the crate's synchronization primitives.
//!
//! Every sync type the gate primitives are built from — atomics, the
//! guard-style mutex, `Instant`, `yield_now`, `spin_loop` — is imported
//! through this module instead of `std::sync`/`parking_lot` directly;
//! that includes the DC/DE record admission
//! ([`TicketGate`](crate::clock::TicketGate) and its `Backoff` spin,
//! whose `spin_loop`/`yield_now` hints become scheduling points
//! in-model). A
//! normal build re-exports the real types, so there is zero overhead and
//! no behaviour change. Building with the `model` cargo feature (or
//! loom-style with `RUSTFLAGS="--cfg reomp_model"`) swaps in the vendored
//! `shuttle` model checker's instrumented shims, which dispatch at
//! runtime: outside a `shuttle::check` execution they forward to the same
//! `std` types; inside one, every operation becomes a scheduling point
//! against shuttle's store-buffer memory model. That runtime dispatch is
//! what makes the feature safe to unify workspace-wide — `reomp-model`
//! turning it on does not perturb the tier-1 test suite.
//!
//! Deliberately **not** routed through the seam:
//!
//! * [`crate::stats`] counters — monotonic diagnostics that never feed
//!   back into control flow; shimming them would only blow up the model's
//!   state space.
//! * [`crate::store`] internals and the session's sink `RwLock` — only
//!   ever contended by the single dumping/finishing thread in the
//!   harnesses, so they cannot block a controlled thread against a parked
//!   one (the one hazard an un-shimmed lock poses inside the model).

#[cfg(not(any(reomp_model, feature = "model")))]
mod backend {
    pub use parking_lot::Mutex;
    pub use std::hint::spin_loop;
    pub use std::sync::atomic;
    pub use std::thread::yield_now;
    pub use std::time::Instant;
}

#[cfg(any(reomp_model, feature = "model"))]
mod backend {
    pub use shuttle::hint::spin_loop;
    pub use shuttle::sync::atomic;
    pub use shuttle::sync::Mutex;
    pub use shuttle::thread::yield_now;
    pub use shuttle::time::Instant;
}

pub(crate) use backend::*;
