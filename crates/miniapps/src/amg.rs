//! AMG proxy: two-level algebraic-multigrid V-cycles with an asynchronous
//! (racy) Jacobi smoother (Fig. 13).
//!
//! The smoother updates `x[i]` from its neighbours **in place and without
//! synchronization** — a chaotic/asynchronous relaxation, a classic benign
//! race in multigrid smoothers. Each relaxation is three gated racy loads
//! (left, self, right) plus one gated store, spread over `site_groups`
//! sites, so consecutive accesses rarely share a site: epoch runs stay
//! short, matching AMG's modest 10.6 % epochs>1 in §VI-B (versus HACC's
//! clustered 85 %).

use crate::rng::Rng;
use crate::{checksum_f64s, AppOutput};
use ompr::{RacyArray, Reduction, Runtime};
#[cfg(test)]
use reomp_core::{Scheme, Session};

/// AMG configuration (1D Poisson model problem).
#[derive(Debug, Clone)]
pub struct Config {
    /// Fine-grid unknowns (even).
    pub n: usize,
    /// V-cycles.
    pub cycles: u64,
    /// Smoother sweeps per cycle (pre + post).
    pub sweeps: usize,
    /// Jacobi damping.
    pub omega: f64,
    /// Distinct gate sites across the fine grid.
    pub site_groups: usize,
    /// RNG seed for the right-hand side.
    pub seed: u64,
}

impl Config {
    /// Test-sized config scaled by `scale` (≥ 1).
    #[must_use]
    pub fn scaled(scale: usize) -> Config {
        let s = scale.max(1);
        Config {
            n: 64 * s,
            cycles: 3 + s as u64,
            sweeps: 2,
            omega: 0.6,
            site_groups: 16,
            seed: 0x0041_4d47, // "AMG"
        }
    }

    fn rhs(&self) -> Vec<f64> {
        let mut rng = Rng::new(self.seed);
        (0..self.n).map(|_| rng.next_f64() - 0.5).collect()
    }
}

/// `residual[i] = b[i] - (2x[i] - x[i-1] - x[i+1])` with zero boundaries.
fn residual_at(x: &[f64], b: &[f64], i: usize) -> f64 {
    let n = x.len();
    let left = if i > 0 { x[i - 1] } else { 0.0 };
    let right = if i + 1 < n { x[i + 1] } else { 0.0 };
    b[i] - (2.0 * x[i] - left - right)
}

/// Sequential oracle: synchronous weighted-Jacobi two-level V-cycles.
#[must_use]
pub fn run_seq(cfg: &Config) -> AppOutput {
    let b = cfg.rhs();
    let n = cfg.n;
    let nc = n / 2;
    let mut x = vec![0.0f64; n];
    let mut last_norm = 0.0;
    for _ in 0..cfg.cycles {
        for _ in 0..cfg.sweeps {
            let snapshot = x.clone();
            for i in 0..n {
                let left = if i > 0 { snapshot[i - 1] } else { 0.0 };
                let right = if i + 1 < n { snapshot[i + 1] } else { 0.0 };
                x[i] = (1.0 - cfg.omega) * snapshot[i] + cfg.omega * 0.5 * (b[i] + left + right);
            }
        }
        // Restrict residual (full weighting), solve coarse by Jacobi,
        // prolong and correct.
        let mut rc = vec![0.0f64; nc];
        for (c, rcv) in rc.iter_mut().enumerate() {
            let f = 2 * c;
            let r0 = residual_at(&x, &b, f);
            let r1 = if f + 1 < n {
                residual_at(&x, &b, f + 1)
            } else {
                0.0
            };
            *rcv = 0.5 * (r0 + r1);
        }
        let mut xc = vec![0.0f64; nc];
        for _ in 0..10 {
            let snap = xc.clone();
            for i in 0..nc {
                let left = if i > 0 { snap[i - 1] } else { 0.0 };
                let right = if i + 1 < nc { snap[i + 1] } else { 0.0 };
                xc[i] = 0.5 * (rc[i] / 2.0 + 0.5 * (left + right));
            }
        }
        for (c, &corr) in xc.iter().enumerate() {
            let f = 2 * c;
            x[f] += corr;
            if f + 1 < n {
                x[f + 1] += corr;
            }
        }
        for _ in 0..cfg.sweeps {
            let snapshot = x.clone();
            for i in 0..n {
                let left = if i > 0 { snapshot[i - 1] } else { 0.0 };
                let right = if i + 1 < n { snapshot[i + 1] } else { 0.0 };
                x[i] = (1.0 - cfg.omega) * snapshot[i] + cfg.omega * 0.5 * (b[i] + left + right);
            }
        }
        last_norm = (0..n)
            .map(|i| residual_at(&x, &b, i).powi(2))
            .sum::<f64>()
            .sqrt();
    }
    AppOutput {
        checksum: checksum_f64s(&x),
        scalar: last_norm,
        steps: cfg.cycles,
    }
}

/// Threaded AMG: the smoother's neighbour reads and in-place writes are
/// gated racy accesses (asynchronous Jacobi).
#[must_use]
pub fn run(rt: &Runtime, cfg: &Config) -> AppOutput {
    let b = cfg.rhs();
    let n = cfg.n;
    let nc = n / 2;
    let x: RacyArray<f64> = RacyArray::new("amg:x", n, cfg.site_groups, 0.0);
    let norm_red: Vec<Reduction> = (0..cfg.cycles)
        .map(|c| Reduction::sum_f64(&format!("amg:norm:{c}")))
        .collect();
    let coarse = ompr::SharedVec::new(nc, 0.0);
    let rc = ompr::SharedVec::new(nc, 0.0);

    rt.parallel(|w| {
        let smoother = |w: &ompr::Worker| {
            w.for_static(0..n, |i| {
                // Asynchronous relaxation: *neighbour* reads race with the
                // neighbours' owners' stores, so those two load sites and
                // the store site are what a race detector flags. Reading
                // one's own cell never races (only the owner writes it),
                // so that load stays un-gated — instruction-granularity
                // instrumentation, like ReOMP's TSan-driven plan.
                let left = if i > 0 {
                    w.racy_load_at(&x, i - 1)
                } else {
                    0.0
                };
                let right = if i + 1 < n {
                    w.racy_load_at(&x, i + 1)
                } else {
                    0.0
                };
                let cur = x.raw_load(i);
                let new = (1.0 - cfg.omega) * cur + cfg.omega * 0.5 * (b[i] + left + right);
                w.racy_store_at(&x, i, new);
            });
        };
        for (cycle, norm_red_c) in norm_red.iter().enumerate() {
            let _ = cycle;
            for _ in 0..cfg.sweeps {
                smoother(w);
            }
            w.barrier();
            // Restriction (deterministic: x is read-only in this phase,
            // so plain raw loads suffice — no gates needed).
            w.for_static(0..nc, |c| {
                let f = 2 * c;
                let at = |j: i64| -> f64 {
                    if j < 0 || j >= n as i64 {
                        0.0
                    } else {
                        x.raw_load(j as usize)
                    }
                };
                let res = |i: usize| -> f64 {
                    b[i] - (2.0 * at(i as i64) - at(i as i64 - 1) - at(i as i64 + 1))
                };
                let r0 = res(f);
                let r1 = if f + 1 < n { res(f + 1) } else { 0.0 };
                rc.set(c, 0.5 * (r0 + r1));
            });
            w.barrier();
            // Coarse solve by master (small) — protected by `single` so
            // the executor is recorded.
            w.single(|| {
                let mut xc = vec![0.0f64; nc];
                for _ in 0..10 {
                    let snap = xc.clone();
                    for i in 0..nc {
                        let left = if i > 0 { snap[i - 1] } else { 0.0 };
                        let right = if i + 1 < nc { snap[i + 1] } else { 0.0 };
                        xc[i] = 0.5 * (rc.get(i) / 2.0 + 0.5 * (left + right));
                    }
                }
                for (i, v) in xc.iter().enumerate() {
                    coarse.set(i, *v);
                }
            });
            w.barrier();
            // Prolongation + correction (disjoint writes).
            w.for_static(0..nc, |c| {
                let f = 2 * c;
                let corr = coarse.get(c);
                x.raw_store(f, x.raw_load(f) + corr);
                if f + 1 < n {
                    x.raw_store(f + 1, x.raw_load(f + 1) + corr);
                }
            });
            w.barrier();
            for _ in 0..cfg.sweeps {
                smoother(w);
            }
            w.barrier();
            // Residual norm via gated reduction.
            let xsnap = x.to_vec();
            let mut local = 0.0;
            w.for_static(0..n, |i| {
                local += residual_at(&xsnap, &b, i).powi(2);
            });
            w.reduce(norm_red_c, local);
            w.barrier();
        }
    });

    AppOutput {
        checksum: checksum_f64s(&x.to_vec()),
        scalar: norm_red[(cfg.cycles - 1) as usize].load().sqrt(),
        steps: cfg.cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Config {
        Config {
            n: 32,
            cycles: 3,
            sweeps: 2,
            omega: 0.6,
            site_groups: 8,
            seed: 5,
        }
    }

    #[test]
    fn sequential_oracle_reduces_residual() {
        let cfg = small();
        let one = run_seq(&Config {
            cycles: 1,
            ..cfg.clone()
        });
        let many = run_seq(&Config { cycles: 6, ..cfg });
        assert!(
            many.scalar < one.scalar,
            "V-cycles must converge: {} -> {}",
            one.scalar,
            many.scalar
        );
    }

    #[test]
    fn threaded_converges_too() {
        let cfg = small();
        let rt = Runtime::new(Session::passthrough(4));
        let out = run(&rt, &cfg);
        assert!(out.scalar.is_finite());
        let seq = run_seq(&cfg);
        // Chaotic relaxation differs from synchronous Jacobi, but both must
        // be in the same convergence ballpark.
        assert!(
            out.scalar < seq.scalar * 10.0 + 1.0,
            "par {} vs seq {}",
            out.scalar,
            seq.scalar
        );
    }

    #[test]
    fn record_replay_bitwise_identical_all_schemes() {
        crate::tests::replays_bitwise(|rt| run(rt, &small()));
    }

    #[test]
    fn de_epoch_fraction_is_modest_under_paper_policy() {
        // Neighbour-alternating addresses keep runs short: under the
        // paper-literal per-address Condition 1, AMG's fraction is small
        // but non-zero (10.6% at 112 threads in §VI-B), far below HACC's.
        let cfg = small();
        let scfg = reomp_core::SessionConfig {
            epoch_policy: reomp_core::EpochPolicy::PerAddress,
            ..Default::default()
        };
        let session = Session::record_with(Scheme::De, 4, scfg);
        let rt = Runtime::new(session.clone());
        let _ = run(&rt, &cfg);
        let hist = session.finish().unwrap().epoch_histogram().unwrap();
        assert!(hist.frac_gt1() > 0.0, "{hist}");
        assert!(
            hist.frac_gt1() < 0.8,
            "AMG should share far less than HACC: {hist}"
        );
    }
}
