//! Hybrid halo-exchange driver: the (rank × domain) workload.
//!
//! A 1-D stencil slab per rank, `threads` ompr workers inside each rank —
//! the structure of the paper's §VI-C hybrid MPI+OpenMP codes, built to
//! exercise **both** sharded recorders at once:
//!
//! * threads smooth the slab through racy loads/stores on a
//!   [`RacyArray`] (thread-gate non-determinism, spread across gate
//!   domains);
//! * each worker pulls one *work* message per step through a gated
//!   wildcard receive — which thread gets which message is the
//!   `MPI_THREAD_MULTIPLE` race of §VI-C, and the per-step phase tag
//!   routes the receives across the rmpi session's `(rank × domain)`
//!   streams;
//! * boundary contributions arrive with `ANY_SOURCE` and are folded in
//!   **arrival order** (floating-point order-sensitive), the classic
//!   ReMPI message race;
//! * the global energy is an arrival-order allreduce, and the step
//!   barrier runs through [`RankCtx::barrier_with`] so multi-domain
//!   hybrid traces carry the cross-domain edges the rank barrier
//!   establishes.
//!
//! Replay feeds back the [`MpiTrace`] plus one [`TraceBundle`] per rank
//! and must reproduce every bit of the output. The per-rank thread
//! sessions run with [`MpiSession::matching_thread_plan`], which keeps
//! every receive of one MPI domain inside one thread-gate domain — the
//! hybrid soundness contract of the sharded recorder.

use crate::rng::Rng;
use crate::{checksum_f64s, AppOutput};
use ompr::{RacyArray, Runtime};
use reomp_core::{Scheme, Session, SessionConfig, TraceBundle};
use rmpi::{MpiSession, MpiSessionConfig, MpiTrace, RankCtx, World, ANY_SOURCE};
use std::sync::Arc;
use std::time::Duration;

/// Work-message tag base; the per-step phase is added to it.
const TAG_WORK: u32 = 31;
/// Boundary-contribution tag base; the per-step phase is added to it.
const TAG_EDGE: u32 = 47;
/// Distinct phase tags: steps cycle through them so the receive sites
/// spread over up to this many receive-order domains.
const NPHASES: u32 = 4;

/// Hybrid halo-exchange configuration.
#[derive(Debug, Clone)]
pub struct HybridConfig {
    /// Interior cells per rank.
    pub cells: usize,
    /// Smoothing steps.
    pub steps: u64,
    /// MPI ranks (slabs).
    pub ranks: u32,
    /// ompr threads per rank.
    pub threads: u32,
    /// Recording scheme for the per-rank thread sessions.
    pub scheme: Scheme,
    /// Receive-order domains per rank (`REOMP_DOMAINS`-style dial for the
    /// rmpi layer; the thread sessions run a matching plan).
    pub mpi_domains: u32,
    /// Distinct gate sites for the slab (small → long same-site runs).
    pub site_groups: usize,
    /// RNG seed (slab initialization and work-message payloads).
    pub seed: u64,
    /// Replay spin watchdog for the thread sessions (`None` = default);
    /// raise it for oversubscribed replays.
    pub replay_timeout: Option<Duration>,
}

impl HybridConfig {
    /// Test-sized config: 2 ranks × 4 threads over 4 receive-order
    /// domains.
    #[must_use]
    pub fn scaled(scale: usize) -> HybridConfig {
        let s = scale.max(1);
        HybridConfig {
            cells: 24 * s,
            steps: 4 + s as u64,
            ranks: 2,
            threads: 4,
            scheme: Scheme::De,
            mpi_domains: 4,
            site_groups: 2,
            seed: 0x4841_4c4f, // "HALO"
            replay_timeout: None,
        }
    }
}

/// Trace set of a hybrid halo record run.
#[derive(Debug, Clone)]
pub struct HybridTraces {
    /// ReMPI-style `(rank × domain)` receive order.
    pub mpi: MpiTrace,
    /// One ReOMP bundle per rank.
    pub omp: Vec<TraceBundle>,
}

enum Mode {
    Passthrough,
    Record,
    Replay(HybridTraces),
}

/// Record a hybrid halo run.
#[must_use]
pub fn run_hybrid_record(cfg: &HybridConfig) -> (AppOutput, HybridTraces) {
    let (out, t) = hybrid_impl(cfg, Mode::Record);
    (out, t.expect("record yields traces"))
}

/// Replay a hybrid halo run.
#[must_use]
pub fn run_hybrid_replay(cfg: &HybridConfig, traces: HybridTraces) -> AppOutput {
    hybrid_impl(cfg, Mode::Replay(traces)).0
}

/// Baseline hybrid halo run without any recording.
#[must_use]
pub fn run_hybrid_passthrough(cfg: &HybridConfig) -> AppOutput {
    hybrid_impl(cfg, Mode::Passthrough).0
}

fn thread_session_cfg(cfg: &HybridConfig, mpi: &MpiSession) -> SessionConfig {
    let mut scfg = SessionConfig {
        // The thread gate partitions with the SAME plan as the rmpi
        // session: receives sharing a receive-order stream co-locate in
        // one thread-gate domain, so their pop order is enforced.
        plan: Some(mpi.matching_thread_plan()),
        ..SessionConfig::default()
    };
    if let Some(t) = cfg.replay_timeout {
        scfg.spin.timeout = Some(t);
    }
    scfg
}

fn hybrid_impl(cfg: &HybridConfig, mode: Mode) -> (AppOutput, Option<HybridTraces>) {
    let ranks = cfg.ranks;
    let mpi_cfg = MpiSessionConfig::with_domains(cfg.mpi_domains);
    let (mpi_session, omp_in): (Arc<MpiSession>, Option<Vec<TraceBundle>>) = match &mode {
        Mode::Passthrough => (Arc::new(MpiSession::passthrough(ranks)), None),
        Mode::Record => (Arc::new(MpiSession::record_with(ranks, mpi_cfg)), None),
        Mode::Replay(t) => (
            Arc::new(MpiSession::replay(t.mpi.clone())),
            Some(t.omp.clone()),
        ),
    };
    let is_record = matches!(mode, Mode::Record);

    let rank_outputs = World::run(ranks, Arc::clone(&mpi_session), |rank| {
        let scfg = thread_session_cfg(cfg, &mpi_session);
        let session = match &omp_in {
            Some(bundles) => {
                Session::replay_with(bundles[rank.rank() as usize].clone(), scfg).expect("bundle")
            }
            None if is_record => Session::record_with(cfg.scheme, cfg.threads, scfg),
            None => Session::passthrough(cfg.threads),
        };
        let rt = Runtime::new(session.clone());
        let out = rank_step_loop(rank, &rt, &session, cfg);
        let report = session.finish().expect("threads joined");
        assert_eq!(report.failure, None, "rank {} replay failed", rank.rank());
        (out, report.bundle)
    });

    let mut checksum = 0u64;
    let mut energy = 0.0;
    let mut bundles = Vec::new();
    for (out, bundle) in rank_outputs {
        checksum = crate::mix_checksums(checksum, out.checksum);
        energy = out.scalar; // identical on all ranks (allreduce)
        if let Some(b) = bundle {
            bundles.push(b);
        }
    }
    let out = AppOutput {
        checksum,
        scalar: energy,
        steps: cfg.steps,
    };
    let traces = is_record.then(|| HybridTraces {
        mpi: mpi_session.finish(),
        omp: bundles,
    });
    (out, traces)
}

fn rank_step_loop(
    rank: &mut RankCtx,
    rt: &Runtime,
    session: &Arc<Session>,
    cfg: &HybridConfig,
) -> AppOutput {
    let my = rank.rank();
    let ranks = rank.nranks();
    let left = (my + ranks - 1) % ranks;
    let right = (my + 1) % ranks;
    let cells = cfg.cells.max(4);

    let slab: RacyArray<f64> = RacyArray::new("halo:slab", cells, cfg.site_groups, 0.0);
    let mut rng = Rng::new(cfg.seed ^ (u64::from(my) << 32));
    for i in 0..cells {
        slab.raw_store(i, rng.next_f64());
    }
    // Work-message payloads are derived from the config alone, so record
    // and replay send identical streams.
    let mut payload_rng = Rng::new(
        cfg.seed
            .wrapping_mul(0x9e37_79b9)
            .wrapping_add(u64::from(my)),
    );

    let mut energy = 0.0;

    for step in 0..cfg.steps {
        let phase = (step % u64::from(NPHASES)) as u32;

        // Work messages for the right neighbour's workers (self-ring for
        // single-rank worlds): one per thread, racy in *which thread*
        // receives *which payload*.
        for _ in 0..cfg.threads {
            let v = payload_rng.next_below(cells) as u64;
            rank.send_u64s(right, TAG_WORK + phase, &[v])
                .expect("send work");
        }

        rt.parallel(|w| {
            // Racy Jacobi-ish smoothing: neighbour loads + centre store.
            w.for_static(0..cells, |i| {
                let l = w.racy_load_at(&slab, if i == 0 { 0 } else { i - 1 });
                let r = w.racy_load_at(&slab, (i + 1).min(cells - 1));
                w.racy_update_at(&slab, i, |c| 0.5 * c + 0.25 * (l + r));
            });
            w.barrier();
            // Each worker pulls one work message through a gated wildcard
            // receive and deposits it — the §VI-C thread-multiple race.
            let msg = rank
                .recv(ANY_SOURCE, TAG_WORK + phase, Some(w.ctx()))
                .expect("gated work recv");
            let cell = (msg.as_u64s()[0] as usize) % cells;
            w.racy_update_at(&slab, cell, |c| c + 1.0 / 64.0);
        });

        // Boundary contributions: edge sums to both neighbours, folded in
        // ARRIVAL order (fp order-sensitive) from wildcard receives.
        let lo_edge = slab.raw_load(0);
        let hi_edge = slab.raw_load(cells - 1);
        rank.send_f64s(left, TAG_EDGE + phase, &[hi_edge])
            .expect("send edge");
        rank.send_f64s(right, TAG_EDGE + phase, &[lo_edge])
            .expect("send edge");
        for _ in 0..2 {
            let m = rank
                .recv(ANY_SOURCE, TAG_EDGE + phase, None)
                .expect("edge recv");
            let v = m.as_f64s()[0];
            slab.raw_store(0, slab.raw_load(0) + 0.125 * v);
            slab.raw_store(cells - 1, slab.raw_load(cells - 1) + 0.125 * v);
        }

        // Global energy: arrival-order allreduce, then the step barrier —
        // noted as a sync point so the next region's first gate anchors a
        // cross-domain edge.
        let local: f64 = slab.to_vec().iter().map(|v| v * v).sum();
        energy = rank.allreduce_sum_f64(&[local]).expect("allreduce")[0];
        // The barrier notes its synchronization point through a
        // rank-scope context for tid 0, so multi-domain thread traces
        // carry the cross-domain edge it establishes. Registered only
        // here, between parallel regions: tid 0's worker context is gone
        // by now, and a tid has one live context at a time.
        let rank_ctx = session.register_thread(0);
        rank.barrier_with(Some(&rank_ctx));
    }

    AppOutput {
        checksum: checksum_f64s(&slab.to_vec()),
        scalar: energy,
        steps: cfg.steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64, mpi_domains: u32) -> HybridConfig {
        HybridConfig {
            cells: 16,
            steps: 4,
            ranks: 2,
            threads: 4,
            scheme: Scheme::De,
            mpi_domains,
            site_groups: 2,
            seed,
            replay_timeout: Some(Duration::from_secs(120)),
        }
    }

    #[test]
    fn passthrough_runs_and_is_finite() {
        let out = run_hybrid_passthrough(&small(1, 1));
        assert!(out.scalar.is_finite() && out.scalar >= 0.0);
    }

    #[test]
    fn d4_hybrid_replays_deterministically_across_seeds() {
        // The acceptance sweep: a D = 4 hybrid (2 ranks × 4 threads) run
        // records and replays bit-identically across 10 seeds.
        // `REOMP_DOMAINS` re-pins the domain count (the CI hybrid leg
        // sets 4, matching the default).
        let domains = std::env::var("REOMP_DOMAINS")
            .ok()
            .and_then(|s| s.parse::<u32>().ok())
            .filter(|&d| d >= 1)
            .unwrap_or(4);
        for seed in 0..10u64 {
            let cfg = small(seed, domains);
            let (recorded, traces) = run_hybrid_record(&cfg);
            assert_eq!(traces.mpi.domains, domains, "seed {seed}");
            assert_eq!(traces.omp.len(), 2, "seed {seed}");
            assert!(traces.mpi.total_events() > 0, "seed {seed}");
            let replayed = run_hybrid_replay(&cfg, traces);
            assert_eq!(replayed, recorded, "seed {seed}");
        }
    }

    #[test]
    fn hybrid_replays_across_schemes_and_domain_counts() {
        for scheme in Scheme::ALL {
            for domains in [1u32, 2] {
                let mut cfg = small(7, domains);
                cfg.scheme = scheme;
                let (recorded, traces) = run_hybrid_record(&cfg);
                assert_eq!(traces.mpi.domains, domains);
                let replayed = run_hybrid_replay(&cfg, traces);
                assert_eq!(replayed, recorded, "{scheme:?}/D={domains}");
            }
        }
    }

    #[test]
    fn mpi_trace_spreads_across_domains_and_survives_dir_roundtrip() {
        let cfg = small(3, 4);
        let (_, traces) = run_hybrid_record(&cfg);
        // 4 phase tags + the collective tags: more than one domain must
        // hold events, or the sharding dial does nothing for this app.
        let populated = (0..traces.mpi.domains)
            .filter(|&d| (0..traces.mpi.nranks()).any(|r| !traces.mpi.recv_stream(r, d).is_empty()))
            .count();
        assert!(populated > 1, "events spread over {populated} domain(s)");

        let dir = std::env::temp_dir().join(format!("halo-mpi-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        traces.mpi.save_dir(&dir).unwrap();
        let back = MpiTrace::load_dir(&dir).unwrap();
        assert_eq!(back, traces.mpi);
        // The reloaded trace drives a full replay just like the in-memory
        // one (separate-process deployment, like ReMPI record files).
        let replayed = run_hybrid_replay(
            &cfg,
            HybridTraces {
                mpi: back,
                omp: traces.omp.clone(),
            },
        );
        let replayed2 = run_hybrid_replay(&cfg, traces);
        assert_eq!(replayed, replayed2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn single_rank_world_self_ring_works() {
        let cfg = HybridConfig {
            ranks: 1,
            threads: 2,
            ..small(5, 2)
        };
        let (recorded, traces) = run_hybrid_record(&cfg);
        let replayed = run_hybrid_replay(&cfg, traces);
        assert_eq!(replayed, recorded);
    }
}
