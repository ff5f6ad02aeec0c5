//! Named critical sections (`#pragma omp critical [(name)]`).
//!
//! Clang translates a critical clause into a
//! `__kmpc_critical`/`__kmpc_end_critical` pair; the paper instruments
//! `gate_in` *before* the former and `gate_out` *after* the latter (§V).
//! [`crate::Worker::critical`] does exactly that: the ReOMP gate wraps the
//! mutex acquisition plus the user region, so the recorded order is the
//! order threads entered the critical section. In a multi-domain session
//! a critical gate anchors cross-domain edges; under DC/DE it records
//! through the same lock-free ticket gate as every other access (see
//! [`crate::racy`]).

use reomp_core::SiteId;

/// A named critical section; create one per `critical` construct and share
/// it across the team.
#[derive(Debug)]
pub struct Critical {
    name: String,
    site: SiteId,
    pub(crate) mutex: parking_lot::Mutex<()>,
}

impl Critical {
    /// Critical section identified by `name` (the site hash is derived from
    /// it, like ReOMP's hash of the construct's source location).
    #[must_use]
    pub fn new(name: &str) -> Self {
        Critical {
            name: name.to_string(),
            site: SiteId::from_label(name),
            mutex: parking_lot::Mutex::new(()),
        }
    }

    /// The construct's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The gate site of this construct.
    #[must_use]
    pub fn site(&self) -> SiteId {
        self.site
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_is_stable_per_name() {
        let a = Critical::new("update");
        let b = Critical::new("update");
        let c = Critical::new("other");
        assert_eq!(a.site(), b.site());
        assert_ne!(a.site(), c.site());
        assert_eq!(a.name(), "update");
    }

    #[test]
    fn mutex_provides_exclusion() {
        let cs = Critical::new("excl");
        let mut value = 0u64;
        let cell = std::cell::UnsafeCell::new(&mut value);
        // Exercise the raw mutex directly (Worker::critical is tested in
        // worker.rs with the full gate path).
        let counter = parking_lot::Mutex::new(0u64);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        let _g = cs.mutex.lock();
                        *counter.lock() += 1;
                    }
                });
            }
        });
        let _ = cell;
        assert_eq!(*counter.lock(), 4000);
    }
}
