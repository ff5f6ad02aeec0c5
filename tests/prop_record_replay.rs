//! Property-based record→replay equivalence on randomized gate programs.
//!
//! For arbitrary per-thread programs of racy loads/stores/updates over a
//! small set of shared cells (plus critical sections and atomics), every
//! scheme must replay the recorded run to the exact same final memory
//! state and the same per-thread observation log — the core soundness
//! property of the whole system.

use proptest::prelude::*;
use reomp::{ompr, Scheme, Session};
use std::sync::Arc;

/// One gated operation in a generated program.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Racy load of cell `c`; the observed value is logged.
    Load(u8),
    /// Racy store of a distinct marker value to cell `c`.
    Store(u8),
    /// Racy increment (load + store) of cell `c`.
    Update(u8),
    /// Critical-section increment of the safe counter.
    Critical,
    /// Atomic add to the atomic accumulator.
    Atomic,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..3).prop_map(Op::Load),
        (0u8..3).prop_map(Op::Store),
        (0u8..3).prop_map(Op::Update),
        Just(Op::Critical),
        Just(Op::Atomic),
    ]
}

/// Execute the generated program; returns (per-cell finals, observation
/// checksum) — both must be identical between record and replay.
fn execute(programs: &[Vec<Op>], session: &Arc<Session>) -> (Vec<u64>, u64) {
    let nthreads = programs.len() as u32;
    let cells: Vec<ompr::RacyCell<u64>> = (0..3)
        .map(|i| ompr::RacyCell::new(&format!("prop:cell{i}"), 0))
        .collect();
    let cs = ompr::Critical::new("prop:cs");
    let safe = std::sync::atomic::AtomicU64::new(0);
    let acc = ompr::AtomicF64::new(0.0);
    let acc_site = reomp::SiteId::from_label("prop:atomic");
    let logs: Vec<std::sync::Mutex<u64>> =
        (0..nthreads).map(|_| std::sync::Mutex::new(0)).collect();

    let rt = ompr::Runtime::new(Arc::clone(session));
    rt.parallel(|w| {
        let tid = w.tid() as usize;
        let mut log: u64 = 0xcbf2_9ce4_8422_2325;
        for (step, op) in programs[tid].iter().enumerate() {
            match *op {
                Op::Load(c) => {
                    let v = w.racy_load(&cells[c as usize]);
                    log = log.rotate_left(7) ^ v;
                }
                Op::Store(c) => {
                    // Distinct marker so final values identify the writer.
                    let marker = (tid as u64) << 32 | step as u64;
                    w.racy_store(&cells[c as usize], marker);
                }
                Op::Update(c) => {
                    w.racy_update(&cells[c as usize], |v| v.wrapping_add(1));
                }
                Op::Critical => {
                    w.critical(&cs, || {
                        safe.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    });
                }
                Op::Atomic => {
                    w.atomic_add_f64(acc_site, &acc, 1.0);
                }
            }
        }
        *logs[tid].lock().unwrap() = log;
    });

    let finals: Vec<u64> = cells.iter().map(|c| c.raw_load()).collect();
    let mut checksum = acc.load(std::sync::atomic::Ordering::Relaxed).to_bits()
        ^ safe.load(std::sync::atomic::Ordering::Relaxed);
    for log in &logs {
        checksum = checksum.rotate_left(13) ^ *log.lock().unwrap();
    }
    (finals, checksum)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    #[test]
    fn random_programs_replay_exactly_under_every_scheme(
        programs in proptest::collection::vec(
            proptest::collection::vec(op_strategy(), 0..25),
            2..4,
        ),
        domains_idx in 0usize..3,
    ) {
        // Sweep gate-domain counts alongside schemes: the generated
        // programs hash their sites across domains, so D > 1 exercises the
        // sharded gate paths. REOMP_DOMAINS (set by the CI
        // oversubscription leg) pins the count.
        let domains = std::env::var("REOMP_DOMAINS")
            .ok()
            .and_then(|s| s.parse::<u32>().ok())
            .filter(|&d| d >= 1)
            .unwrap_or([1u32, 2, 4][domains_idx]);
        let cfg = reomp::SessionConfig {
            domains,
            ..reomp::SessionConfig::default()
        };
        for scheme in Scheme::ALL {
            let session = Session::record_with(scheme, programs.len() as u32, cfg.clone());
            let recorded = execute(&programs, &session);
            let report = session.finish().unwrap();
            let bundle = report.bundle.unwrap();
            prop_assert_eq!(bundle.domains, domains);
            prop_assert!(bundle.validate().is_ok());

            let session = Session::replay(bundle).unwrap();
            let replayed = execute(&programs, &session);
            let report = session.finish().unwrap();
            prop_assert_eq!(report.failure, None, "{} D={} replay failed", scheme, domains);
            prop_assert_eq!(
                &replayed, &recorded,
                "{} D={} final state mismatch", scheme, domains
            );
        }
    }

    /// DE threads write their own records and receive fix-ups for the
    /// rare store that was provisionally wrong; whatever the script, the
    /// assembled per-thread files must be what the reference
    /// `EpochTracker` run says — buffered, and streamed with a flush
    /// threshold small enough that owners apply fix-ups mid-run.
    #[test]
    fn sequential_de_scripts_match_the_reference_tracker(
        script in proptest::collection::vec((0u32..3, 0u64..3, 0u8..8), 0..120),
        flush_records in 1usize..6,
    ) {
        use reomp::core::epoch::EpochTracker;
        use reomp::{AccessKind, EpochPolicy, SessionConfig, SiteId, TraceStore};
        // Mostly loads and stores (the kinds epochs apply to), now and
        // then one that serializes.
        let kind_of = |k: u8| match k {
            0..=2 => AccessKind::Load,
            3..=6 => AccessKind::Store,
            _ => AccessKind::Critical,
        };
        let drive = |session: &Arc<Session>| {
            let ctxs: Vec<_> = (0..3).map(|t| session.register_thread(t)).collect();
            for &(t, site, k) in &script {
                ctxs[t as usize].gate(SiteId(0x51 + site), kind_of(k), || ());
            }
        };
        for policy in [EpochPolicy::Contiguous, EpochPolicy::PerAddress] {
            // Reference: one tracker, epochs indexed by clock.
            let mut tracker = EpochTracker::new(policy, 0);
            let mut epochs: Vec<u64> = Vec::new();
            for (clock, &(t, site, k)) in script.iter().enumerate() {
                let site = SiteId(0x51 + site);
                let obs = tracker.observe(t, site, site.raw(), kind_of(k), clock as u64);
                if let Some(f) = obs.fixup {
                    epochs[f.clock as usize] = f.epoch;
                }
                epochs.push(obs.value);
            }
            let expect: Vec<Vec<u64>> = (0..3)
                .map(|t| {
                    script
                        .iter()
                        .zip(&epochs)
                        .filter(|((owner, _, _), _)| *owner == t)
                        .map(|(_, &e)| e)
                        .collect()
                })
                .collect();
            // A store is the only kind whose epoch can end below its clock.
            let deferred = script
                .iter()
                .zip((0u64..).zip(&epochs))
                .filter(|((_, _, k), (c, e))| kind_of(*k) == AccessKind::Store && c != *e)
                .count() as u64;

            let cfg = SessionConfig {
                epoch_policy: policy,
                flush_records,
                ..SessionConfig::default()
            };
            let buffered = Session::record_with(Scheme::De, 3, cfg.clone());
            drive(&buffered);
            let report = buffered.finish().unwrap();
            prop_assert_eq!(report.stats.deferred_finalizations, deferred, "{:?}", policy);
            let bundle = report.bundle.unwrap();

            let store = reomp::MemStore::new();
            let streamed = Session::record_streaming_with(Scheme::De, 3, cfg, &store).unwrap();
            drive(&streamed);
            let report = streamed.finish().unwrap();
            prop_assert_eq!(report.stats.deferred_finalizations, deferred, "{:?}", policy);
            prop_assert_eq!(report.stats.records_written, script.len() as u64);
            let (loaded, _) = store.load().unwrap();
            prop_assert_eq!(&loaded, &bundle, "{:?}: streamed ≡ buffered", policy);

            for (t, values) in expect.iter().enumerate() {
                prop_assert_eq!(
                    &bundle.thread(0, t as u32).values, values,
                    "{:?}: thread {}", policy, t
                );
            }
        }
    }

    #[test]
    fn random_traces_roundtrip_through_the_codec(
        programs in proptest::collection::vec(
            proptest::collection::vec(op_strategy(), 1..15),
            2..4,
        )
    ) {
        use reomp::TraceStore;
        let session = Session::record(Scheme::De, programs.len() as u32);
        let _ = execute(&programs, &session);
        let bundle = session.finish().unwrap().bundle.unwrap();
        let store = reomp::MemStore::new();
        store.save(&bundle).unwrap();
        let (back, _) = store.load().unwrap();
        prop_assert_eq!(back, bundle);
    }
}
