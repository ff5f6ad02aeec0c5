//! # miniapps — the paper's evaluation workloads
//!
//! Kernel-faithful Rust reproductions of the five non-deterministic HPC
//! applications of §VI-B, built on the [`ompr`] runtime so that every
//! shared-memory access the paper would instrument passes a ReOMP gate:
//!
//! | module | proxy for | dominant gated accesses | §VI-B epochs>1 |
//! |--------|-----------|-------------------------|----------------|
//! | [`amg`] | LLNL AMG | racy Jacobi smoother loads/stores | 10.6 % |
//! | [`quicksilver`] | LLNL Quicksilver | atomic tallies (serialize) | 4 % |
//! | [`minife`] | Mantevo miniFE | atomic FE scatter + reductions | 27.5 % |
//! | [`hacc`] | HACC | racy particle-mesh deposit/interp | 85 % |
//! | [`hpccg`] | Mantevo HPCCG | CG reductions + racy residual cell | 57 % |
//!
//! The *physics* is simplified (the experiments measure gate traffic, not
//! science), but each app keeps its real parallel structure: the mix of
//! reductions, critical sections, atomics and benign races that produces
//! the paper's per-app epoch-size distributions (Fig. 20).
//!
//! Every app exposes:
//! * a `Config` (sizes, steps, RNG seed),
//! * `run_seq(&Config) -> AppOutput` — a deterministic sequential oracle,
//! * `run(&Runtime, &Config) -> AppOutput` — the threaded version whose
//!   gated accesses are recorded/replayed through the runtime's session,
//! * (HACC, HPCCG) `hybrid` variants running rmpi ranks × ompr threads
//!   for the §VI-C ReMPI+ReOMP case study, and [`halo`] — a dedicated
//!   hybrid halo-exchange driver whose phase-tagged receives exercise the
//!   rmpi session's `(rank × domain)` receive-order streams with threads
//!   inside ranks.

#![warn(missing_docs)]

pub mod amg;
pub mod hacc;
pub mod halo;
pub mod hpccg;
pub mod linalg;
pub mod minife;
pub mod quicksilver;
pub mod rng;

/// The result of one application run.
#[derive(Debug, Clone, PartialEq)]
pub struct AppOutput {
    /// Bitwise checksum over the result data — two runs replayed correctly
    /// produce identical checksums even when floating-point order matters.
    pub checksum: u64,
    /// A representative scalar (residual norm, total energy, tally sum…).
    pub scalar: f64,
    /// Iterations/steps executed.
    pub steps: u64,
}

/// Order-sensitive bitwise checksum of a float slice.
#[must_use]
pub fn checksum_f64s(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        h ^= v.to_bits();
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Order-sensitive bitwise checksum of a u64 slice.
#[must_use]
pub fn checksum_u64s(values: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Combine two checksums.
#[must_use]
pub fn mix_checksums(a: u64, b: u64) -> u64 {
    a.rotate_left(17) ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The five applications, in the paper's presentation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// Algebraic multigrid solver proxy (Fig. 13).
    Amg,
    /// Monte-Carlo transport proxy (Fig. 14).
    QuickSilver,
    /// Implicit finite-element proxy (Fig. 15).
    MiniFe,
    /// Particle-mesh cosmology proxy (Fig. 16).
    Hacc,
    /// Conjugate-gradient benchmark proxy (Fig. 17).
    Hpccg,
}

impl App {
    /// All apps in figure order.
    pub const ALL: [App; 5] = [
        App::Amg,
        App::QuickSilver,
        App::MiniFe,
        App::Hacc,
        App::Hpccg,
    ];

    /// Display name as used in the paper.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            App::Amg => "AMG",
            App::QuickSilver => "QuickSilver",
            App::MiniFe => "miniFE",
            App::Hacc => "HACC",
            App::Hpccg => "HPCCG",
        }
    }

    /// Run the app's threaded version with a small default configuration
    /// scaled by `scale` (1 = test-sized, larger for benches).
    #[must_use]
    pub fn run_scaled(self, rt: &ompr::Runtime, scale: usize) -> AppOutput {
        match self {
            App::Amg => amg::run(rt, &amg::Config::scaled(scale)),
            App::QuickSilver => quicksilver::run(rt, &quicksilver::Config::scaled(scale)),
            App::MiniFe => minife::run(rt, &minife::Config::scaled(scale)),
            App::Hacc => hacc::run(rt, &hacc::Config::scaled(scale)),
            App::Hpccg => hpccg::run(rt, &hpccg::Config::scaled(scale)),
        }
    }
}

impl std::fmt::Display for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompr::Runtime;
    use reomp_core::{Scheme, Session};

    /// Record `run` under every scheme and replay it: the replay must run
    /// clean and reproduce the output bit for bit.
    pub(crate) fn replays_bitwise<O: PartialEq + std::fmt::Debug>(run: impl Fn(&Runtime) -> O) {
        for scheme in Scheme::ALL {
            let session = Session::record(scheme, 4);
            let recorded = run(&Runtime::new(session.clone()));
            let bundle = session.finish().unwrap().bundle.unwrap();
            let session = Session::replay(bundle).unwrap();
            let replayed = run(&Runtime::new(session.clone()));
            assert_eq!(session.finish().unwrap().failure, None, "{scheme:?}");
            assert_eq!(replayed, recorded, "{scheme:?}");
        }
    }

    #[test]
    fn checksums_are_order_sensitive() {
        let a = checksum_f64s(&[1.0, 2.0]);
        let b = checksum_f64s(&[2.0, 1.0]);
        assert_ne!(a, b);
        assert_eq!(checksum_f64s(&[1.0, 2.0]), a, "deterministic");
        assert_ne!(checksum_u64s(&[1, 2]), checksum_u64s(&[2, 1]));
    }

    #[test]
    fn mix_is_not_commutative() {
        assert_ne!(mix_checksums(1, 2), mix_checksums(2, 1));
    }

    #[test]
    fn app_names_match_paper() {
        let names: Vec<&str> = App::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["AMG", "QuickSilver", "miniFE", "HACC", "HPCCG"]);
    }
}
