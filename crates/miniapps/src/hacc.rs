//! HACC proxy: particle-mesh gravity step (Fig. 16; hybrid MPI+OpenMP in
//! Fig. 18).
//!
//! HACC deposits particle mass onto a mesh, derives forces from the mesh,
//! and pushes particles (leapfrog). Gravitational clustering concentrates
//! particles in few cells, so the mesh scatter and gather hammer a handful
//! of hot locations — here via [`ompr::RacyArray`] benign races: cloud-in-
//! cell deposit is a gated load+store pair per cell, force interpolation
//! is three gated loads. Long same-cell load runs between deposits are
//! what gives HACC the paper's **85 %** epochs-larger-than-1 (§VI-B) and
//! the biggest DE replay speedup (5.61× in Table X).

use crate::rng::Rng;
use crate::{checksum_f64s, mix_checksums, AppOutput};
use ompr::{RacyArray, Reduction, Runtime, SharedVec};
use reomp_core::{Scheme, Session, TraceBundle};
use rmpi::{MpiSession, MpiTrace, RankCtx, World, ANY_SOURCE};
use std::sync::Arc;

/// HACC configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Mesh cells (1D mesh; the access pattern, not the dimensionality,
    /// drives gate traffic).
    pub ncells: usize,
    /// Particles.
    pub nparticles: usize,
    /// Leapfrog steps.
    pub steps: u64,
    /// Clustering: fraction of particles packed into the central cells.
    pub clustering: f64,
    /// Distinct gate sites for the mesh (small → long same-site runs).
    pub site_groups: usize,
    /// Maximum spins on the racy step flag per thread per step.
    pub poll_budget: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Config {
    /// Test-sized config scaled by `scale` (≥ 1).
    #[must_use]
    pub fn scaled(scale: usize) -> Config {
        let s = scale.max(1);
        Config {
            ncells: 32,
            nparticles: 64 * s,
            steps: 4 + s as u64,
            clustering: 0.8,
            site_groups: 2,
            poll_budget: 24,
            seed: 0x4841_4343, // "HACC"
        }
    }

    fn init_particles(&self) -> (Vec<f64>, Vec<f64>) {
        let mut rng = Rng::new(self.seed);
        let center = self.ncells as f64 / 2.0;
        let mut pos = Vec::with_capacity(self.nparticles);
        let mut vel = Vec::with_capacity(self.nparticles);
        for _ in 0..self.nparticles {
            let p = if rng.next_f64() < self.clustering {
                // Clustered around the centre (±2 cells).
                (center + rng.next_gaussian_ish() * 0.6).clamp(1.0, self.ncells as f64 - 2.0)
            } else {
                1.0 + rng.next_f64() * (self.ncells as f64 - 3.0)
            };
            pos.push(p);
            vel.push(rng.next_f64() * 0.2 - 0.1);
        }
        (pos, vel)
    }
}

const DT: f64 = 0.05;
const G: f64 = 0.3;

/// Sequential oracle (deterministic particle order, no lost updates).
#[must_use]
pub fn run_seq(cfg: &Config) -> AppOutput {
    let (mut pos, mut vel) = cfg.init_particles();
    let mut density = vec![0.0f64; cfg.ncells];
    for _ in 0..cfg.steps {
        density.iter_mut().for_each(|d| *d = 0.0);
        for &p in &pos {
            let cell = p.floor() as usize;
            let frac = p - p.floor();
            density[cell] += 1.0 - frac;
            density[(cell + 1).min(cfg.ncells - 1)] += frac;
        }
        for i in 0..pos.len() {
            let cell = (pos[i].floor() as usize).clamp(1, cfg.ncells - 2);
            let force = -G * (density[cell + 1] - density[cell - 1]) * 0.5;
            vel[i] += force * DT;
            pos[i] += vel[i] * DT;
            bounce(&mut pos[i], &mut vel[i], cfg.ncells);
        }
    }
    finish_output(&pos, &vel)
}

fn bounce(pos: &mut f64, vel: &mut f64, ncells: usize) {
    let lo = 1.0;
    let hi = ncells as f64 - 2.0;
    if *pos < lo {
        *pos = lo + (lo - *pos);
        *vel = -*vel;
    }
    if *pos > hi {
        *pos = hi - (*pos - hi);
        *vel = -*vel;
    }
    *pos = pos.clamp(lo, hi);
}

fn finish_output(pos: &[f64], vel: &[f64]) -> AppOutput {
    let ke: f64 = vel.iter().map(|v| 0.5 * v * v).sum();
    AppOutput {
        checksum: mix_checksums(checksum_f64s(pos), checksum_f64s(vel)),
        scalar: ke,
        steps: 0,
    }
}

/// Threaded HACC step loop: racy deposit + racy gather on the mesh, plus
/// the §IV-D producer/consumer idiom — threads *poll* a racy step flag
/// while the master publishes progress, yielding the long same-address
/// load runs behind HACC's dominant epoch sharing.
#[must_use]
pub fn run(rt: &Runtime, cfg: &Config) -> AppOutput {
    let (pos0, vel0) = cfg.init_particles();
    let pos = SharedVec::from_slice(&pos0);
    let vel = SharedVec::from_slice(&vel0);
    let density: RacyArray<f64> = RacyArray::new("hacc:density", cfg.ncells, cfg.site_groups, 0.0);
    let step_flag = ompr::RacyCell::new("hacc:step-flag", 0u64);
    let ke_red: Vec<Reduction> = (0..cfg.steps)
        .map(|s| Reduction::sum_f64(&format!("hacc:ke:{s}")))
        .collect();
    let np = cfg.nparticles;

    rt.parallel(|w| {
        for (step, ke_red_s) in ke_red.iter().enumerate() {
            // Zero the mesh (disjoint static partition, raw access).
            w.for_static(0..cfg.ncells, |c| density.raw_store(c, 0.0));
            w.barrier();
            // Deposit: cloud-in-cell scatter, racy load+store per cell.
            w.for_static(0..np, |i| {
                let p = pos.get(i);
                let cell = p.floor() as usize;
                let frac = p - p.floor();
                w.racy_update_at(&density, cell, |d| d + (1.0 - frac));
                w.racy_update_at(&density, (cell + 1).min(cfg.ncells - 1), |d| d + frac);
            });
            // Producer/consumer spin: the master announces deposit
            // completion through a benign race; workers poll (bounded).
            w.master(|| w.racy_store(&step_flag, step as u64 + 1));
            let mut polls = 0u32;
            while w.racy_load(&step_flag) < step as u64 + 1 && polls < cfg.poll_budget {
                polls += 1;
            }
            w.barrier();
            // Gather + push: three racy loads per particle.
            let mut local_ke = 0.0;
            w.for_static(0..np, |i| {
                let mut p = pos.get(i);
                let mut v = vel.get(i);
                let cell = (p.floor() as usize).clamp(1, cfg.ncells - 2);
                let dm = w.racy_load_at(&density, cell - 1);
                let _dc = w.racy_load_at(&density, cell);
                let dp = w.racy_load_at(&density, cell + 1);
                let force = -G * (dp - dm) * 0.5;
                v += force * DT;
                p += v * DT;
                bounce(&mut p, &mut v, cfg.ncells);
                pos.set(i, p);
                vel.set(i, v);
                local_ke += 0.5 * v * v;
            });
            w.reduce(ke_red_s, local_ke);
            w.barrier();
        }
    });

    let mut out = finish_output(&pos.to_vec(), &vel.to_vec());
    out.scalar = ke_red[(cfg.steps - 1) as usize].load();
    out.steps = cfg.steps;
    out
}

// ---------------------------------------------------------------------
// Hybrid MPI+OpenMP variant (§VI-C, Fig. 18)
// ---------------------------------------------------------------------

/// Hybrid configuration.
#[derive(Debug, Clone)]
pub struct HybridConfig {
    /// Base problem; cells and particles are partitioned across ranks.
    pub base: Config,
    /// MPI ranks (domain slabs).
    pub ranks: u32,
    /// Threads per rank.
    pub threads: u32,
    /// Recording scheme for per-rank thread sessions.
    pub scheme: Scheme,
}

/// Trace pair from a hybrid record run.
#[derive(Debug, Clone)]
pub struct HybridTraces {
    /// ReMPI-style wildcard receive order.
    pub mpi: MpiTrace,
    /// One ReOMP bundle per rank.
    pub omp: Vec<TraceBundle>,
}

enum Mode {
    Passthrough,
    Record,
    Replay(HybridTraces),
}

/// Record a hybrid run.
#[must_use]
pub fn run_hybrid_record(cfg: &HybridConfig) -> (AppOutput, HybridTraces) {
    let (out, t) = hybrid_impl(cfg, Mode::Record);
    (out, t.expect("record yields traces"))
}

/// Replay a hybrid run.
#[must_use]
pub fn run_hybrid_replay(cfg: &HybridConfig, traces: HybridTraces) -> AppOutput {
    hybrid_impl(cfg, Mode::Replay(traces)).0
}

/// Baseline hybrid run without any recording.
#[must_use]
pub fn run_hybrid_passthrough(cfg: &HybridConfig) -> AppOutput {
    hybrid_impl(cfg, Mode::Passthrough).0
}

const TAG_MIGRATE: u32 = 17;

fn hybrid_impl(cfg: &HybridConfig, mode: Mode) -> (AppOutput, Option<HybridTraces>) {
    let ranks = cfg.ranks;
    let (mpi_session, omp_in): (Arc<MpiSession>, Option<Vec<TraceBundle>>) = match &mode {
        Mode::Passthrough => (Arc::new(MpiSession::passthrough(ranks)), None),
        Mode::Record => (Arc::new(MpiSession::record(ranks)), None),
        Mode::Replay(t) => (
            Arc::new(MpiSession::replay(t.mpi.clone())),
            Some(t.omp.clone()),
        ),
    };
    let is_record = matches!(mode, Mode::Record);

    let rank_outputs = World::run(ranks, Arc::clone(&mpi_session), |rank| {
        let session = match &omp_in {
            Some(bundles) => {
                Session::replay(bundles[rank.rank() as usize].clone()).expect("bundle")
            }
            None if is_record => Session::record(cfg.scheme, cfg.threads),
            None => Session::passthrough(cfg.threads),
        };
        let rt = Runtime::new(session.clone());
        let out = rank_step_loop(rank, &rt, cfg);
        let report = session.finish().expect("threads joined");
        assert_eq!(report.failure, None, "rank {} replay failed", rank.rank());
        (out, report.bundle)
    });

    let mut checksum = 0u64;
    let mut ke = 0.0;
    let mut bundles = Vec::new();
    for (out, bundle) in rank_outputs {
        checksum = mix_checksums(checksum, out.checksum);
        ke = out.scalar; // identical on all ranks (allreduce)
        if let Some(b) = bundle {
            bundles.push(b);
        }
    }
    let out = AppOutput {
        checksum,
        scalar: ke,
        steps: cfg.base.steps,
    };
    let traces = is_record.then(|| HybridTraces {
        mpi: mpi_session.finish(),
        omp: bundles,
    });
    (out, traces)
}

/// One rank's slab: local mesh + local particles; migrants cross slab
/// borders via messages received with `ANY_SOURCE` (arrival order is the
/// recorded non-determinism), and the global kinetic energy is an
/// arrival-order allreduce.
fn rank_step_loop(rank: &mut RankCtx, rt: &Runtime, cfg: &HybridConfig) -> AppOutput {
    let my = rank.rank() as usize;
    let ranks = rank.nranks() as usize;
    let cells_per_rank = (cfg.base.ncells / ranks).max(4);
    let lo = (my * cells_per_rank) as f64;
    let hi = ((my + 1) * cells_per_rank) as f64;

    // Local particles: the global set filtered to this slab.
    let (gpos, gvel) = cfg.base.init_particles();
    let scale = cells_per_rank as f64 * ranks as f64 / cfg.base.ncells as f64;
    let mut pos: Vec<f64> = Vec::new();
    let mut vel: Vec<f64> = Vec::new();
    for (p, v) in gpos.iter().zip(&gvel) {
        let p = p * scale;
        if p >= lo && p < hi {
            pos.push(p);
            vel.push(*v);
        }
    }

    let density: RacyArray<f64> = RacyArray::new(
        "hacc:h:density",
        cells_per_rank + 2, // ghost cell each side
        cfg.base.site_groups,
        0.0,
    );
    let mut ke_total = 0.0;

    for step in 0..cfg.base.steps {
        let np = pos.len();
        let pos_s = SharedVec::from_slice(&pos);
        let vel_s = SharedVec::from_slice(&vel);
        let ke_red = Reduction::sum_f64(&format!("hacc:h:ke:{my}:{step}"));

        rt.parallel(|w| {
            w.for_static(0..density.len(), |c| density.raw_store(c, 0.0));
            w.barrier();
            w.for_static(0..np, |i| {
                let p = pos_s.get(i) - lo + 1.0; // ghost offset
                let cell = (p.floor() as usize).min(cells_per_rank);
                let frac = p - p.floor();
                w.racy_update_at(&density, cell, |d| d + (1.0 - frac));
                w.racy_update_at(&density, cell + 1, |d| d + frac);
            });
            w.barrier();
            let mut local_ke = 0.0;
            w.for_static(0..np, |i| {
                let mut p = pos_s.get(i);
                let mut v = vel_s.get(i);
                let local = (p - lo + 1.0).floor() as usize;
                let cell = local.clamp(1, cells_per_rank);
                let dm = w.racy_load_at(&density, cell - 1);
                let dp = w.racy_load_at(&density, cell + 1);
                v += -G * (dp - dm) * 0.5 * DT;
                p += v * DT;
                // Reflect at global domain edges only.
                let glo = 0.5;
                let ghi = (cells_per_rank * ranks) as f64 - 0.5;
                if p < glo {
                    p = glo + (glo - p);
                    v = -v;
                }
                if p > ghi {
                    p = ghi - (p - ghi);
                    v = -v;
                }
                pos_s.set(i, p);
                vel_s.set(i, v);
                local_ke += 0.5 * v * v;
            });
            w.reduce(&ke_red, local_ke);
        });

        // Partition into stay / migrate-left / migrate-right.
        pos = pos_s.to_vec();
        vel = vel_s.to_vec();
        let mut stay_p = Vec::new();
        let mut stay_v = Vec::new();
        let mut left = Vec::new();
        let mut right = Vec::new();
        for (p, v) in pos.iter().zip(&vel) {
            if *p < lo && my > 0 {
                left.push(*p);
                left.push(*v);
            } else if *p >= hi && my < ranks - 1 {
                right.push(*p);
                right.push(*v);
            } else {
                stay_p.push(p.clamp(lo, hi - 1e-9));
                stay_v.push(*v);
            }
        }
        // Exchange migrants: always send (possibly empty) to both sides,
        // then receive exactly the expected number with ANY_SOURCE — the
        // append order is the recorded race.
        let mut expected = 0;
        if my > 0 {
            rank.send_f64s(my as u32 - 1, TAG_MIGRATE, &left)
                .expect("send");
            expected += 1;
        }
        if my < ranks - 1 {
            rank.send_f64s(my as u32 + 1, TAG_MIGRATE, &right)
                .expect("send");
            expected += 1;
        }
        for _ in 0..expected {
            let m = rank.recv(ANY_SOURCE, TAG_MIGRATE, None).expect("recv");
            for pair in m.as_f64s().chunks_exact(2) {
                stay_p.push(pair[0].clamp(lo, hi - 1e-9));
                stay_v.push(pair[1]);
            }
        }
        pos = stay_p;
        vel = stay_v;

        // Global kinetic energy: arrival-order allreduce.
        ke_total = rank.allreduce_sum_f64(&[ke_red.load()]).expect("allreduce")[0];
        rank.barrier();
    }

    AppOutput {
        checksum: mix_checksums(checksum_f64s(&pos), checksum_f64s(&vel)),
        scalar: ke_total,
        steps: cfg.base.steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Config {
        Config {
            ncells: 16,
            nparticles: 40,
            steps: 3,
            clustering: 0.8,
            site_groups: 2,
            poll_budget: 16,
            seed: 3,
        }
    }

    #[test]
    fn sequential_oracle_is_deterministic_and_bounded() {
        let a = run_seq(&small());
        let b = run_seq(&small());
        assert_eq!(a, b);
        assert!(a.scalar.is_finite() && a.scalar >= 0.0);
    }

    #[test]
    fn record_replay_bitwise_identical_all_schemes() {
        crate::tests::replays_bitwise(|rt| run(rt, &small()));
    }

    #[test]
    fn de_epoch_sharing_is_dominant_under_paper_policy() {
        // HACC is the paper's poster child (85% of epochs share under its
        // per-address Condition 1). Under the paper-literal policy, most
        // *accesses* must land in shared epochs — that access share is what
        // drives the 5.61x DE replay speedup of Table X.
        let cfg = small();
        let scfg = reomp_core::SessionConfig {
            epoch_policy: reomp_core::EpochPolicy::PerAddress,
            ..Default::default()
        };
        let session = Session::record_with(Scheme::De, 4, scfg);
        let rt = Runtime::new(session.clone());
        let _ = run(&rt, &cfg);
        let hist = session.finish().unwrap().epoch_histogram().unwrap();
        assert!(
            hist.frac_accesses_gt1() > 0.4,
            "expected dominant epoch sharing, got {hist}"
        );
        // And under the conservative contiguous policy there is still some.
        let session = Session::record(Scheme::De, 4);
        let rt = Runtime::new(session.clone());
        let _ = run(&rt, &cfg);
        let hist = session.finish().unwrap().epoch_histogram().unwrap();
        assert!(hist.frac_accesses_gt1() > 0.0, "{hist}");
    }

    #[test]
    fn hybrid_record_replay_bitwise_identical() {
        let cfg = HybridConfig {
            base: small(),
            ranks: 2,
            threads: 2,
            scheme: Scheme::De,
        };
        let (recorded, traces) = run_hybrid_record(&cfg);
        assert_eq!(traces.omp.len(), 2);
        let replayed = run_hybrid_replay(&cfg, traces);
        assert_eq!(replayed, recorded);
    }

    #[test]
    fn hybrid_passthrough_conserves_particles() {
        let cfg = HybridConfig {
            base: small(),
            ranks: 3,
            threads: 2,
            scheme: Scheme::De,
        };
        let out = run_hybrid_passthrough(&cfg);
        assert!(out.scalar.is_finite());
    }
}
