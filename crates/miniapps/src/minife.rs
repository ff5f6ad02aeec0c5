//! miniFE proxy: implicit finite-element assembly + CG solve (Fig. 15).
//!
//! miniFE's parallel hot spots are (1) the **assembly** loop, where
//! elements scatter their local stiffness/load contributions into shared
//! global arrays — here gated `atomic` adds, exactly how OpenMP miniFE
//! guards its scatter — and (2) the CG solve with its order-sensitive
//! reductions. An assembly *progress cell* (benign race: workers
//! periodically store, others load) adds the load/store traffic behind
//! miniFE's mid-range 27.5 % epochs>1 (§VI-B).

use crate::linalg::{cg_par, cg_seq, Csr};
use crate::rng::Rng;
use crate::{checksum_f64s, mix_checksums, AppOutput};
use ompr::{AtomicF64, RacyCell, Runtime};
use reomp_core::SiteId;
#[cfg(test)]
use reomp_core::{Scheme, Session};

/// miniFE configuration (1D bar of 2-node elements; the scatter pattern,
/// not the element order, is what matters).
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of elements (nodes = elements + 1).
    pub nelems: usize,
    /// CG iterations after assembly.
    pub cg_iters: u64,
    /// Distinct gate sites for the scatter targets.
    pub site_groups: usize,
    /// Update the racy progress cell every this many elements.
    pub progress_stride: usize,
    /// RNG seed for material coefficients and load.
    pub seed: u64,
}

impl Config {
    /// Test-sized config scaled by `scale` (≥ 1).
    #[must_use]
    pub fn scaled(scale: usize) -> Config {
        let s = scale.max(1);
        Config {
            nelems: 48 * s,
            cg_iters: 5 + s as u64,
            site_groups: 8,
            progress_stride: 4,
            seed: 0x6d69_6e69_4645, // "miniFE"
        }
    }

    fn coefficients(&self) -> (Vec<f64>, Vec<f64>) {
        let mut rng = Rng::new(self.seed);
        let stiff: Vec<f64> = (0..self.nelems).map(|_| 1.0 + rng.next_f64()).collect();
        let load: Vec<f64> = (0..self.nelems).map(|_| rng.next_f64() - 0.25).collect();
        (stiff, load)
    }
}

/// Assemble the global tridiagonal system sequentially (oracle).
fn assemble_seq(cfg: &Config) -> (Csr, Vec<f64>) {
    let (stiff, load) = cfg.coefficients();
    let nnodes = cfg.nelems + 1;
    let mut diag = vec![1e-9; nnodes]; // tiny regularization
    let mut off = vec![0.0; cfg.nelems];
    let mut b = vec![0.0; nnodes];
    for e in 0..cfg.nelems {
        let k = stiff[e];
        diag[e] += k;
        diag[e + 1] += k;
        off[e] -= k;
        b[e] += load[e] * 0.5;
        b[e + 1] += load[e] * 0.5;
    }
    (tridiag_to_csr(&diag, &off), b)
}

fn tridiag_to_csr(diag: &[f64], off: &[f64]) -> Csr {
    let n = diag.len();
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    row_ptr.push(0);
    for i in 0..n {
        if i > 0 {
            cols.push((i - 1) as u32);
            vals.push(off[i - 1]);
        }
        cols.push(i as u32);
        vals.push(diag[i]);
        if i + 1 < n {
            cols.push(i as u32 + 1);
            vals.push(off[i]);
        }
        row_ptr.push(cols.len());
    }
    Csr {
        row_ptr,
        cols,
        vals,
        n,
    }
}

/// Sequential oracle: assemble + CG.
#[must_use]
pub fn run_seq(cfg: &Config) -> AppOutput {
    let (a, b) = assemble_seq(cfg);
    let (x, rtr, _) = cg_seq(&a, &b, cfg.cg_iters, 0.0);
    AppOutput {
        checksum: checksum_f64s(&x),
        scalar: rtr.sqrt(),
        steps: cfg.cg_iters,
    }
}

/// Threaded miniFE: atomic-scatter assembly, then gated-reduction CG.
#[must_use]
pub fn run(rt: &Runtime, cfg: &Config) -> AppOutput {
    let (stiff, load) = cfg.coefficients();
    let nnodes = cfg.nelems + 1;
    let diag: Vec<AtomicF64> = (0..nnodes).map(|_| AtomicF64::new(1e-9)).collect();
    let bvec: Vec<AtomicF64> = (0..nnodes).map(|_| AtomicF64::new(0.0)).collect();
    let off: Vec<AtomicF64> = (0..cfg.nelems).map(|_| AtomicF64::new(0.0)).collect();
    let sites: Vec<SiteId> = (0..cfg.site_groups)
        .map(|g| SiteId::from_label_indexed("minife:scatter", g as u64))
        .collect();
    let site_of = |node: usize| sites[node % sites.len()];
    let progress = RacyCell::new("minife:progress", 0.0f64);

    // Assembly: dynamic schedule (elements have uneven cost in real miniFE)
    // with gated atomic scatter-adds.
    rt.parallel(|w| {
        let mut done = 0usize;
        let mut watched = 0.0;
        w.for_dynamic(0..cfg.nelems, 8, |e| {
            let k = stiff[e];
            w.atomic_add_f64(site_of(e), &diag[e], k);
            w.atomic_add_f64(site_of(e + 1), &diag[e + 1], k);
            w.atomic_add_f64(site_of(e), &off[e], -k);
            w.atomic_add_f64(site_of(e), &bvec[e], load[e] * 0.5);
            w.atomic_add_f64(site_of(e + 1), &bvec[e + 1], load[e] * 0.5);
            done += 1;
            if done.is_multiple_of(cfg.progress_stride) {
                // Benign race: poll assembly progress (a short burst of
                // loads — the consumer side of §IV-D's spinning idiom),
                // then publish our own.
                for _ in 0..3 {
                    watched += w.racy_load(&progress);
                }
                w.racy_store(&progress, done as f64);
            }
        });
        let _ = watched;
    });

    let a = tridiag_to_csr(
        &diag
            .iter()
            .map(|d| d.load(std::sync::atomic::Ordering::Relaxed))
            .collect::<Vec<_>>(),
        &off.iter()
            .map(|o| o.load(std::sync::atomic::Ordering::Relaxed))
            .collect::<Vec<_>>(),
    );
    let b: Vec<f64> = bvec
        .iter()
        .map(|v| v.load(std::sync::atomic::Ordering::Relaxed))
        .collect();

    let (x, rtr) = cg_par(rt, &a, &b, cfg.cg_iters, "minife:cg");
    AppOutput {
        checksum: mix_checksums(checksum_f64s(&x), checksum_f64s(&b)),
        scalar: rtr.sqrt(),
        steps: cfg.cg_iters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Config {
        Config {
            nelems: 24,
            cg_iters: 5,
            site_groups: 4,
            progress_stride: 4,
            seed: 7,
        }
    }

    #[test]
    fn sequential_assembly_is_spd_like() {
        let (a, b) = assemble_seq(&small());
        assert_eq!(a.n, 25);
        assert_eq!(b.len(), 25);
        // Diagonal dominance-ish: every diag positive.
        for i in 0..a.n {
            let d = (a.row_ptr[i]..a.row_ptr[i + 1])
                .find(|&k| a.cols[k] as usize == i)
                .map(|k| a.vals[k])
                .unwrap();
            assert!(d > 0.0);
        }
    }

    #[test]
    fn threaded_assembly_matches_sequential_values() {
        // Atomic adds commute over f64 only approximately; compare with a
        // tolerance.
        let cfg = small();
        let seq = run_seq(&cfg);
        let rt = Runtime::new(Session::passthrough(4));
        let par = run(&rt, &cfg);
        let rel = (par.scalar - seq.scalar).abs() / seq.scalar.max(1e-30);
        assert!(rel < 1e-6, "par {} vs seq {}", par.scalar, seq.scalar);
    }

    #[test]
    fn record_replay_bitwise_identical_all_schemes() {
        crate::tests::replays_bitwise(|rt| run(rt, &small()));
    }

    #[test]
    fn gate_mix_is_atomic_heavy_with_some_races() {
        let cfg = small();
        let session = Session::record(Scheme::De, 4);
        let rt = Runtime::new(session.clone());
        let _ = run(&rt, &cfg);
        let stats = session.stats();
        let atomics = stats.gates_of(reomp_core::AccessKind::AtomicRmw);
        let loads = stats.gates_of(reomp_core::AccessKind::Load);
        let stores = stats.gates_of(reomp_core::AccessKind::Store);
        assert!(atomics > 0 && loads > 0 && stores > 0);
        assert!(
            atomics > loads + stores,
            "assembly is atomic-dominated: {atomics} vs {}",
            loads + stores
        );
        session.finish().unwrap();
    }
}
