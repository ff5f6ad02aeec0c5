//! HPCCG proxy: conjugate gradient on a 27-point stencil over a 3D
//! chimney-shaped domain (Fig. 17; hybrid MPI+OpenMP version in Fig. 19).
//!
//! Gated access mix (→ ~57 % of epochs larger than 1 in §VI-B): two f64
//! reductions per CG iteration (`p·Ap` and `r·r`, order-sensitive), plus a
//! **benign race** on a shared residual *watch cell*: the master thread
//! publishes the current residual every iteration (store) while all
//! threads poll it during the spmv loop (loads) — the producer/consumer
//! spinning idiom §IV-D calls out. Long runs of polling loads between
//! stores are exactly what DE recording parallelizes.

use crate::linalg::{cg_seq, dot, stencil27, Csr};
use crate::rng::Rng;
use crate::{checksum_f64s, mix_checksums, AppOutput};
use ompr::{RacyCell, Reduction, Runtime, SharedVec};
use reomp_core::{Scheme, Session, SessionReport, TraceBundle};
use rmpi::{MpiSession, MpiTrace, RankCtx, World};
use std::sync::Arc;

/// HPCCG configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Grid extents.
    pub nx: usize,
    /// Grid extents.
    pub ny: usize,
    /// Grid extents.
    pub nz: usize,
    /// CG iterations (fixed count, like the benchmark's `max_iter` runs).
    pub iters: u64,
    /// Poll the racy watch cell every this many rows of spmv.
    pub poll_stride: usize,
    /// RNG seed for the right-hand side.
    pub seed: u64,
}

impl Config {
    /// Test-sized config scaled by `scale` (≥ 1).
    #[must_use]
    pub fn scaled(scale: usize) -> Config {
        let s = scale.max(1);
        Config {
            nx: 6 + 2 * s,
            ny: 6,
            nz: 6,
            iters: 6 + 2 * s as u64,
            poll_stride: 16,
            seed: 0x0048_5043_4347, // "HPCCG"
        }
    }

    fn rhs(&self, n: usize) -> Vec<f64> {
        let mut rng = Rng::new(self.seed);
        (0..n).map(|_| rng.next_f64() * 2.0 - 1.0).collect()
    }
}

/// Sequential oracle: plain CG for `iters` iterations.
#[must_use]
pub fn run_seq(cfg: &Config) -> AppOutput {
    let a = stencil27(cfg.nx, cfg.ny, cfg.nz);
    let b = cfg.rhs(a.n);
    let (x, rtr, iters) = cg_seq(&a, &b, cfg.iters, 0.0);
    AppOutput {
        checksum: checksum_f64s(&x),
        scalar: rtr.sqrt(),
        steps: iters,
    }
}

/// Threaded HPCCG on the given runtime (all gated accesses flow through
/// the runtime's session).
#[must_use]
pub fn run(rt: &Runtime, cfg: &Config) -> AppOutput {
    let a = stencil27(cfg.nx, cfg.ny, cfg.nz);
    let b = cfg.rhs(a.n);
    let n = a.n;
    let nthreads = rt.nthreads() as usize;

    let x = SharedVec::new(n, 0.0);
    let r = SharedVec::from_slice(&b);
    let p = SharedVec::from_slice(&b);
    let ap = SharedVec::new(n, 0.0);
    // Per-iteration reductions (created up front so every thread sees the
    // same construct order).
    let pap_red: Vec<Reduction> = (0..cfg.iters)
        .map(|i| Reduction::sum_f64(&format!("hpccg:pap:{i}")))
        .collect();
    let rtr_red: Vec<Reduction> = (0..cfg.iters)
        .map(|i| Reduction::sum_f64(&format!("hpccg:rtr:{i}")))
        .collect();
    let watch = RacyCell::new("hpccg:watch", dot(&b, &b).sqrt());
    let watch_sum = SharedVec::new(nthreads, 0.0);
    let rtr0 = dot(&b, &b);

    rt.parallel(|w| {
        let tid = w.tid() as usize;
        let mut rtr = rtr0;
        let mut polled = 0.0f64;
        for iter in 0..cfg.iters as usize {
            // Phase 1: ap = A p over this thread's rows, polling the racy
            // watch cell every poll_stride rows (gated loads).
            let mut rows = 0usize;
            w.for_static(0..n, |row| {
                let mut acc = 0.0;
                let lo = a.row_ptr[row];
                let hi = a.row_ptr[row + 1];
                for k in lo..hi {
                    acc += a.vals[k] * p.get(a.cols[k] as usize);
                }
                ap.set(row, acc);
                rows += 1;
                if rows.is_multiple_of(cfg.poll_stride) {
                    polled += w.racy_load(&watch);
                }
            });
            // Phase 2: alpha = rtr / (p·Ap) — gated order-sensitive combine.
            let mut local_pap = 0.0;
            w.for_static(0..n, |row| local_pap += p.get(row) * ap.get(row));
            w.reduce(&pap_red[iter], local_pap);
            w.barrier();
            let alpha = rtr / pap_red[iter].load();
            // Phase 3: x += alpha p; r -= alpha ap; partial r·r.
            let mut local_rtr = 0.0;
            w.for_static(0..n, |row| {
                x.set(row, x.get(row) + alpha * p.get(row));
                let new_r = r.get(row) - alpha * ap.get(row);
                r.set(row, new_r);
                local_rtr += new_r * new_r;
            });
            w.reduce(&rtr_red[iter], local_rtr);
            w.barrier();
            let rtr_new = rtr_red[iter].load();
            // Master publishes the residual through the benign race.
            w.master(|| w.racy_store(&watch, rtr_new.sqrt()));
            // Phase 4: p = r + beta p.
            let beta = rtr_new / rtr;
            w.for_static(0..n, |row| p.set(row, r.get(row) + beta * p.get(row)));
            rtr = rtr_new;
            w.barrier();
        }
        watch_sum.set(tid, polled);
    });

    let final_rtr = rtr_red[(cfg.iters - 1) as usize].load();
    AppOutput {
        checksum: mix_checksums(
            checksum_f64s(&x.to_vec()),
            checksum_f64s(&watch_sum.to_vec()),
        ),
        scalar: final_rtr.sqrt(),
        steps: cfg.iters,
    }
}

// ---------------------------------------------------------------------
// Hybrid MPI+OpenMP variant (§VI-C, Fig. 19)
// ---------------------------------------------------------------------

/// Hybrid run configuration: `ranks × threads` workers.
#[derive(Debug, Clone)]
pub struct HybridConfig {
    /// Base problem (the z-extent is partitioned across ranks).
    pub base: Config,
    /// MPI ranks.
    pub ranks: u32,
    /// OpenMP-like threads per rank.
    pub threads: u32,
    /// Recording scheme for the per-rank thread sessions.
    pub scheme: Scheme,
}

/// Traces produced by a hybrid record run: one ReMPI trace plus one ReOMP
/// bundle per rank.
#[derive(Debug, Clone)]
pub struct HybridTraces {
    /// Wildcard-receive order per rank.
    pub mpi: MpiTrace,
    /// Per-rank thread-gate traces.
    pub omp: Vec<TraceBundle>,
}

enum HybridMode {
    Passthrough,
    Record,
    Replay(HybridTraces),
}

/// Record a hybrid run; returns the output and both trace layers.
#[must_use]
pub fn run_hybrid_record(cfg: &HybridConfig) -> (AppOutput, HybridTraces) {
    let (out, traces) = hybrid_impl(cfg, HybridMode::Record);
    (out, traces.expect("record mode yields traces"))
}

/// Replay a hybrid run from recorded traces.
#[must_use]
pub fn run_hybrid_replay(cfg: &HybridConfig, traces: HybridTraces) -> AppOutput {
    hybrid_impl(cfg, HybridMode::Replay(traces)).0
}

/// Free-running hybrid run (the `w/o ReMPI+ReOMP` baseline of Fig. 19).
#[must_use]
pub fn run_hybrid_passthrough(cfg: &HybridConfig) -> AppOutput {
    hybrid_impl(cfg, HybridMode::Passthrough).0
}

fn hybrid_impl(cfg: &HybridConfig, mode: HybridMode) -> (AppOutput, Option<HybridTraces>) {
    let ranks = cfg.ranks;
    assert!(ranks > 0);
    let nz_total = cfg.base.nz.max(ranks as usize); // at least one plane per rank
    let (mpi_session, omp_bundles_in): (Arc<MpiSession>, Option<Vec<TraceBundle>>) = match &mode {
        HybridMode::Passthrough => (Arc::new(MpiSession::passthrough(ranks)), None),
        HybridMode::Record => (Arc::new(MpiSession::record(ranks)), None),
        HybridMode::Replay(traces) => (
            Arc::new(MpiSession::replay(traces.mpi.clone())),
            Some(traces.omp.clone()),
        ),
    };
    let is_record = matches!(mode, HybridMode::Record);

    let rank_outputs = World::run(ranks, Arc::clone(&mpi_session), |rank| {
        let session = match &omp_bundles_in {
            Some(bundles) => Session::replay(bundles[rank.rank() as usize].clone())
                .expect("valid per-rank bundle"),
            None if is_record => Session::record(cfg.scheme, cfg.threads),
            None => Session::passthrough(cfg.threads),
        };
        let rt = Runtime::new(session.clone());
        let out = rank_cg(rank, &rt, cfg, nz_total);
        let report = session.finish().expect("threads joined");
        assert_eq!(report.failure, None, "rank {} replay failed", rank.rank());
        (out, report)
    });

    // Stitch rank outputs: rank 0 carries the solution norm; checksums mix
    // across ranks in rank order (deterministic).
    let mut checksum = 0u64;
    let mut scalar = 0.0;
    let mut bundles = Vec::new();
    for (rank_out, report) in rank_outputs {
        checksum = mix_checksums(checksum, rank_out.checksum);
        scalar = rank_out.scalar; // identical on all ranks (allreduce)
        if let Some(b) = report_bundle(report) {
            bundles.push(b);
        }
    }
    let out = AppOutput {
        checksum,
        scalar,
        steps: cfg.base.iters,
    };
    let traces = is_record.then(|| HybridTraces {
        mpi: mpi_session.finish(),
        omp: bundles,
    });
    (out, traces)
}

fn report_bundle(report: SessionReport) -> Option<TraceBundle> {
    report.bundle
}

/// One rank's slab of the CG solve: rows of its z-planes, halo exchange of
/// boundary planes before each spmv, allreduce for the two dot products.
fn rank_cg(rank: &mut RankCtx, rt: &Runtime, cfg: &HybridConfig, nz_total: usize) -> AppOutput {
    let my = rank.rank() as usize;
    let ranks = rank.nranks() as usize;
    let plane = cfg.base.nx * cfg.base.ny;
    // z-plane partition.
    let z_lo = my * nz_total / ranks;
    let z_hi = (my + 1) * nz_total / ranks;
    let a = stencil27(cfg.base.nx, cfg.base.ny, nz_total);
    let b = cfg.base.rhs(a.n);
    let row_lo = z_lo * plane;
    let row_hi = z_hi * plane;

    let x = SharedVec::new(a.n, 0.0);
    let r = SharedVec::from_slice(&b);
    let p = SharedVec::from_slice(&b);
    let ap = SharedVec::new(a.n, 0.0);

    let mut rtr: f64 = rank
        .allreduce_sum_f64(&[dot(&b[row_lo..row_hi], &b[row_lo..row_hi])])
        .expect("allreduce")[0];

    let rtr_red: Vec<Reduction> = (0..cfg.base.iters)
        .map(|i| Reduction::sum_f64(&format!("hpccg:h:rtr:{i}")))
        .collect();
    let watch = RacyCell::new("hpccg:h:watch", rtr.sqrt());

    for rtr_red_i in rtr_red.iter().take(cfg.base.iters as usize) {
        // Halo: refresh boundary p-planes from neighbours (skip at edges).
        if ranks > 1 {
            let to_left: Vec<f64> = (0..plane).map(|i| p.get(row_lo + i)).collect();
            let to_right: Vec<f64> = (0..plane).map(|i| p.get(row_hi - plane + i)).collect();
            let (from_left, from_right) =
                rank.halo_exchange_f64s(&to_left, &to_right).expect("halo");
            if my > 0 {
                for (i, v) in from_left.iter().enumerate() {
                    p.set(row_lo - plane + i, *v);
                }
            }
            if my < ranks - 1 {
                for (i, v) in from_right.iter().enumerate() {
                    p.set(row_hi + i, *v);
                }
            }
        }

        // Threaded slab spmv + local pap.
        let local_pap = thread_phase(rt, cfg, &a, &p, &ap, row_lo, row_hi, &watch);
        let pap = rank.allreduce_sum_f64(&[local_pap]).expect("allreduce")[0];
        let alpha = rtr / pap;

        // Local updates + local rtr.
        let local_rtr = update_phase(rt, &x, &r, &p, &ap, alpha, row_lo, row_hi, rtr_red_i);
        let rtr_new = rank.allreduce_sum_f64(&[local_rtr]).expect("allreduce")[0];
        let beta = rtr_new / rtr;
        rt.parallel(|w| {
            w.for_static(row_lo..row_hi, |row| {
                p.set(row, r.get(row) + beta * p.get(row));
            });
            w.master(|| w.racy_store(&watch, rtr_new.sqrt()));
        });
        rtr = rtr_new;
    }

    let local_x: Vec<f64> = (row_lo..row_hi).map(|i| x.get(i)).collect();
    AppOutput {
        checksum: checksum_f64s(&local_x),
        scalar: rtr.sqrt(),
        steps: cfg.base.iters,
    }
}

#[allow(clippy::too_many_arguments)]
fn thread_phase(
    rt: &Runtime,
    cfg: &HybridConfig,
    a: &Csr,
    p: &SharedVec,
    ap: &SharedVec,
    row_lo: usize,
    row_hi: usize,
    watch: &RacyCell<f64>,
) -> f64 {
    let partials = SharedVec::new(rt.nthreads() as usize, 0.0);
    rt.parallel(|w| {
        let mut local = 0.0;
        let mut rows = 0usize;
        let mut polled = 0.0;
        w.for_static(row_lo..row_hi, |row| {
            let mut acc = 0.0;
            for k in a.row_ptr[row]..a.row_ptr[row + 1] {
                acc += a.vals[k] * p.get(a.cols[k] as usize);
            }
            ap.set(row, acc);
            local += p.get(row) * acc;
            rows += 1;
            if rows.is_multiple_of(cfg.base.poll_stride) {
                polled += w.racy_load(watch);
            }
        });
        let _ = polled;
        partials.set(w.tid() as usize, local);
    });
    // Combine thread partials in tid order (deterministic).
    partials.to_vec().iter().sum()
}

#[allow(clippy::too_many_arguments)]
fn update_phase(
    rt: &Runtime,
    x: &SharedVec,
    r: &SharedVec,
    p: &SharedVec,
    ap: &SharedVec,
    alpha: f64,
    row_lo: usize,
    row_hi: usize,
    rtr_red: &Reduction,
) -> f64 {
    rt.parallel(|w| {
        let mut local = 0.0;
        w.for_static(row_lo..row_hi, |row| {
            x.set(row, x.get(row) + alpha * p.get(row));
            let nr = r.get(row) - alpha * ap.get(row);
            r.set(row, nr);
            local += nr * nr;
        });
        w.reduce(rtr_red, local);
    });
    rtr_red.load()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Config {
        Config {
            nx: 5,
            ny: 4,
            nz: 4,
            iters: 5,
            poll_stride: 8,
            seed: 11,
        }
    }

    #[test]
    fn sequential_oracle_is_deterministic() {
        let a = run_seq(&small());
        let b = run_seq(&small());
        assert_eq!(a, b);
        assert!(a.scalar.is_finite());
    }

    #[test]
    fn threaded_matches_oracle_value_approximately() {
        let cfg = small();
        let seq = run_seq(&cfg);
        let session = Session::passthrough(4);
        let rt = Runtime::new(session);
        let par = run(&rt, &cfg);
        // FP combine order differs, but the residual must agree closely.
        let rel = (par.scalar - seq.scalar).abs() / seq.scalar.max(1e-30);
        assert!(rel < 1e-6, "par {} vs seq {}", par.scalar, seq.scalar);
    }

    #[test]
    fn record_replay_is_bitwise_identical() {
        crate::tests::replays_bitwise(|rt| run(rt, &small()));
    }

    #[test]
    fn de_trace_has_shared_epochs() {
        let cfg = small();
        let session = Session::record(Scheme::De, 4);
        let rt = Runtime::new(session.clone());
        let _ = run(&rt, &cfg);
        let hist = session.finish().unwrap().epoch_histogram().unwrap();
        assert!(
            hist.frac_gt1() > 0.0,
            "HPCCG's watch-cell races must produce shared epochs: {hist}"
        );
    }

    #[test]
    fn hybrid_passthrough_runs_and_agrees_with_seq_scale() {
        let cfg = HybridConfig {
            base: small(),
            ranks: 2,
            threads: 2,
            scheme: Scheme::De,
        };
        let out = run_hybrid_passthrough(&cfg);
        assert!(out.scalar.is_finite());
        assert_eq!(out.steps, cfg.base.iters);
    }

    #[test]
    fn hybrid_record_replay_is_bitwise_identical() {
        let cfg = HybridConfig {
            base: small(),
            ranks: 2,
            threads: 2,
            scheme: Scheme::De,
        };
        let (recorded, traces) = run_hybrid_record(&cfg);
        assert_eq!(traces.omp.len(), 2, "one bundle per rank");
        let replayed = run_hybrid_replay(&cfg, traces);
        assert_eq!(replayed, recorded);
    }
}
