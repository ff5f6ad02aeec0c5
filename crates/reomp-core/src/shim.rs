//! Backend seam for the crate's synchronization primitives.
//!
//! Every sync type the gate primitives are built from — atomics, the
//! guard-style mutex, `Instant`, `yield_now`, `spin_loop` — is imported
//! through this module instead of `std::sync`/`parking_lot` directly;
//! that includes the DC/DE record admission
//! ([`TicketGate`](crate::clock::TicketGate) and its `Backoff` spin,
//! whose `spin_loop`/`yield_now` hints become scheduling points
//! in-model). A normal build re-exports the real types. Building with
//! `--cfg reomp_model` swaps in the vendored `shuttle` model checker's
//! instrumented shims, which dispatch at runtime: outside a
//! `shuttle::check` execution they forward to the same `std` types, but
//! every operation pays that dispatch (and the atomics are larger than a
//! word); inside one, every operation becomes a scheduling point against
//! shuttle's store-buffer memory model.
//!
//! The cfg is set in one place: `crates/reomp-core-model`, which compiles
//! these sources a second time for `reomp-model` alone. Every other crate,
//! binary, test and benchmark links the plain build.
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

#[cfg(not(reomp_model))]
mod backend {
    pub use parking_lot::{Mutex, MutexGuard};
    pub use std::hint::spin_loop;
    pub use std::sync::atomic;
    pub use std::thread::yield_now;
    pub use std::time::Instant;
}

#[cfg(reomp_model)]
mod backend {
    pub use shuttle::hint::spin_loop;
    pub use shuttle::sync::atomic;
    pub use shuttle::sync::{Mutex, MutexGuard};
    pub use shuttle::thread::yield_now;
    pub use shuttle::time::Instant;
}

pub(crate) use backend::*;

#[cfg(test)]
mod tests {
    use super::*;

    /// The build every crate outside the model checker links carries the
    /// real primitives: word-sized atomics and parking_lot's mutex, not
    /// shuttle's dispatching shims.
    #[test]
    fn backend_is_std_outside_the_model_build() {
        use std::any::TypeId;
        assert_eq!(std::mem::size_of::<atomic::AtomicU64>(), 8);
        assert_eq!(
            TypeId::of::<Mutex<u64>>(),
            TypeId::of::<parking_lot::Mutex<u64>>()
        );
    }
}
