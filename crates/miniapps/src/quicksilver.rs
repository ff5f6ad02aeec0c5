//! QuickSilver proxy: dynamic Monte-Carlo particle transport (Fig. 14).
//!
//! Quicksilver tracks particles through segments, tallying events into
//! shared counters. The gated mix is dominated by **atomic tallies**
//! (`AtomicRmw` — never epoch-shared) and the dynamically scheduled
//! particle loop (gated chunk claims), plus a `critical`-protected shared
//! particle bank for secondaries. Racy traffic is a rare census-peek cell,
//! matching the paper's observation that only **4 %** of QuickSilver's
//! epochs exceed size 1 — which is why DE gains least here (§VI-B,
//! Table X: 2.06× vs HACC's 5.61×).

use crate::rng::Rng;
use crate::{checksum_u64s, mix_checksums, AppOutput};
use ompr::{Critical, RacyCell, Runtime};
use reomp_core::SiteId;
#[cfg(test)]
use reomp_core::{Scheme, Session};
use std::sync::atomic::{AtomicU64, Ordering};

/// QuickSilver configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Initial particles.
    pub nparticles: usize,
    /// Spatial tally cells.
    pub ncells: usize,
    /// Maximum segments per particle per generation.
    pub max_segments: usize,
    /// Generations (source → census cycles).
    pub generations: u64,
    /// Probability a collision produces a secondary particle.
    pub fission_prob: f64,
    /// Probability a collision absorbs the particle.
    pub absorb_prob: f64,
    /// Peek at the racy census cell every this many segments.
    pub peek_stride: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Config {
    /// Test-sized config scaled by `scale` (≥ 1).
    #[must_use]
    pub fn scaled(scale: usize) -> Config {
        let s = scale.max(1);
        Config {
            nparticles: 48 * s,
            ncells: 16,
            max_segments: 8,
            generations: 3,
            fission_prob: 0.1,
            absorb_prob: 0.25,
            peek_stride: 24,
            seed: 0x5153, // "QS"
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Particle {
    cell: usize,
    seed: u64,
}

/// Sequential oracle: same physics, deterministic particle order.
#[must_use]
pub fn run_seq(cfg: &Config) -> AppOutput {
    let mut tallies = vec![0u64; cfg.ncells];
    let mut collisions = 0u64;
    let mut bank: Vec<Particle> = (0..cfg.nparticles)
        .map(|i| Particle {
            cell: i % cfg.ncells,
            seed: Rng::new(cfg.seed).split(i as u64).next_u64(),
        })
        .collect();
    for _gen in 0..cfg.generations {
        let mut next_bank = Vec::new();
        for p in &bank {
            let mut rng = Rng::new(p.seed);
            let mut cell = p.cell;
            for _seg in 0..cfg.max_segments {
                tallies[cell] += 1;
                let roll = rng.next_f64();
                if roll < cfg.absorb_prob {
                    collisions += 1;
                    break;
                }
                if roll < cfg.absorb_prob + cfg.fission_prob {
                    collisions += 1;
                    next_bank.push(Particle {
                        cell,
                        seed: rng.next_u64(),
                    });
                }
                // Stream to a neighbour cell.
                cell = if rng.next_f64() < 0.5 {
                    cell.saturating_sub(1)
                } else {
                    (cell + 1).min(cfg.ncells - 1)
                };
            }
            next_bank.push(Particle {
                cell,
                seed: rng.next_u64(),
            });
        }
        bank = next_bank;
    }
    AppOutput {
        checksum: mix_checksums(checksum_u64s(&tallies), bank.len() as u64),
        scalar: collisions as f64,
        steps: cfg.generations,
    }
}

/// Threaded QuickSilver: dynamic particle loop, atomic tallies, critical
/// bank, rare racy census peeks.
#[must_use]
pub fn run(rt: &Runtime, cfg: &Config) -> AppOutput {
    let tallies: Vec<AtomicU64> = (0..cfg.ncells).map(|_| AtomicU64::new(0)).collect();
    let tally_sites: Vec<SiteId> = (0..cfg.ncells)
        .map(|c| SiteId::from_label_indexed("qs:tally", c as u64))
        .collect();
    let collisions = AtomicU64::new(0);
    let coll_site = SiteId::from_label("qs:collisions");
    let bank_cs = Critical::new("qs:bank");
    let census = RacyCell::new("qs:census", 0u64);

    let mut bank: Vec<Particle> = (0..cfg.nparticles)
        .map(|i| Particle {
            cell: i % cfg.ncells,
            seed: Rng::new(cfg.seed).split(i as u64).next_u64(),
        })
        .collect();

    for _gen in 0..cfg.generations {
        let next_bank = parking_lot::Mutex::new(Vec::<Particle>::new());
        let bank_ref = &bank;
        rt.parallel(|w| {
            let mut segments = 0usize;
            // Dynamic schedule: particles have uneven lifetimes (the gated
            // chunk claims make the assignment replayable).
            w.for_dynamic(0..bank_ref.len(), 4, |pi| {
                let p = bank_ref[pi];
                let mut rng = Rng::new(p.seed);
                let mut cell = p.cell;
                for _seg in 0..cfg.max_segments {
                    w.atomic_add_u64(tally_sites[cell], &tallies[cell], 1);
                    segments += 1;
                    if segments.is_multiple_of(cfg.peek_stride) {
                        // Rare benign race: double-peek at the census
                        // counter, then bump it.
                        let seen = w.racy_load(&census);
                        let again = w.racy_load(&census);
                        w.racy_store(&census, seen.max(again) + 1);
                    }
                    let roll = rng.next_f64();
                    if roll < cfg.absorb_prob {
                        w.atomic_add_u64(coll_site, &collisions, 1);
                        break;
                    }
                    if roll < cfg.absorb_prob + cfg.fission_prob {
                        w.atomic_add_u64(coll_site, &collisions, 1);
                        let secondary = Particle {
                            cell,
                            seed: rng.next_u64(),
                        };
                        // Shared particle bank: critical section.
                        w.critical(&bank_cs, || next_bank.lock().push(secondary));
                    }
                    cell = if rng.next_f64() < 0.5 {
                        cell.saturating_sub(1)
                    } else {
                        (cell + 1).min(cfg.ncells - 1)
                    };
                }
                let survivor = Particle {
                    cell,
                    seed: rng.next_u64(),
                };
                w.critical(&bank_cs, || next_bank.lock().push(survivor));
            });
        });
        bank = next_bank.into_inner();
    }

    let tally_values: Vec<u64> = tallies.iter().map(|t| t.load(Ordering::Relaxed)).collect();
    AppOutput {
        checksum: mix_checksums(checksum_u64s(&tally_values), bank.len() as u64),
        scalar: collisions.load(Ordering::Relaxed) as f64,
        steps: cfg.generations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Config {
        Config {
            nparticles: 20,
            ncells: 8,
            max_segments: 6,
            generations: 2,
            fission_prob: 0.15,
            absorb_prob: 0.2,
            peek_stride: 16,
            seed: 13,
        }
    }

    #[test]
    fn sequential_oracle_is_deterministic() {
        assert_eq!(run_seq(&small()), run_seq(&small()));
    }

    #[test]
    fn threaded_tallies_match_sequential_exactly() {
        // Atomic u64 tallies are order-insensitive, and per-particle RNG
        // streams are independent of scheduling, so the tally totals (not
        // the bank order) must match the oracle exactly.
        let cfg = small();
        let seq = run_seq(&cfg);
        let rt = Runtime::new(Session::passthrough(4));
        let par = run(&rt, &cfg);
        assert_eq!(par.scalar, seq.scalar, "collision counts are exact");
    }

    #[test]
    fn record_replay_bitwise_identical_all_schemes() {
        crate::tests::replays_bitwise(|rt| run(rt, &small()));
    }

    #[test]
    fn epoch_sharing_is_rare() {
        // The paper: only 4% of QuickSilver epochs exceed size 1.
        let cfg = small();
        let session = Session::record(Scheme::De, 4);
        let rt = Runtime::new(session.clone());
        let _ = run(&rt, &cfg);
        let hist = session.finish().unwrap().epoch_histogram().unwrap();
        assert!(
            hist.frac_gt1() < 0.25,
            "QuickSilver should share few epochs: {hist}"
        );
    }
}
