//! The randomized gate-program generator shared by `prop_record_replay`
//! and the record→replay matrix: per-thread lists of racy loads, stores
//! and updates of three cells, critical sections and atomics; with aliases
//! on, also stores to a cell through a second site ([`Op::Alias`]).

use proptest::prelude::*;
use reomp::ompr::{Event, EventSink};
use reomp::{ompr, AccessKind, Session, SiteId};
use std::sync::Arc;

/// One gated operation in a generated program.
#[derive(Debug, Clone, Copy)]
pub enum Op {
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
    /// Racy store of a marker to cell `c` through its alias site.
    Alias(u8),
}

/// Operations over cells 0..3; `aliases` adds [`Op::Alias`].
pub fn op_strategy(aliases: bool) -> impl Strategy<Value = Op> {
    let kinds = if aliases { 6 } else { 5 };
    (0u8..kinds, 0u8..3).prop_map(|(kind, c)| match kind {
        0 => Op::Load(c),
        1 => Op::Store(c),
        2 => Op::Update(c),
        3 => Op::Critical,
        4 => Op::Atomic,
        _ => Op::Alias(c),
    })
}

/// Execute the generated program under `session`, with `sink` (if any)
/// attached to the runtime and told of every alias store from inside its
/// gated region; returns (per-cell finals, observation checksum) — both
/// must be identical between record and replay.
pub fn execute(
    programs: &[Vec<Op>],
    session: &Arc<Session>,
    sink: Option<&Arc<dyn EventSink>>,
) -> (Vec<u64>, u64) {
    let nthreads = programs.len() as u32;
    let cells: Vec<ompr::RacyCell<u64>> = (0..3)
        .map(|i| ompr::RacyCell::new(&format!("prop:cell{i}"), 0))
        .collect();
    let alias_sites: Vec<SiteId> = (0..3)
        .map(|i| SiteId::from_label(&format!("prop:alias{i}")))
        .collect();
    let cs = ompr::Critical::new("prop:cs");
    let safe = std::sync::atomic::AtomicU64::new(0);
    let acc = ompr::AtomicF64::new(0.0);
    let acc_site = SiteId::from_label("prop:atomic");
    let logs: Vec<std::sync::Mutex<u64>> =
        (0..nthreads).map(|_| std::sync::Mutex::new(0)).collect();

    let mut rt = ompr::Runtime::new(Arc::clone(session));
    if let Some(sink) = sink {
        rt = rt.with_sink(Arc::clone(sink));
    }
    rt.parallel(|w| {
        let tid = w.tid() as usize;
        let mut log: u64 = 0xcbf2_9ce4_8422_2325;
        for (step, op) in programs[tid].iter().enumerate() {
            // Distinct marker so final values identify the writer.
            let marker = (tid as u64) << 32 | step as u64;
            match *op {
                Op::Load(c) => {
                    let v = w.racy_load(&cells[c as usize]);
                    log = log.rotate_left(7) ^ v;
                }
                Op::Store(c) => w.racy_store(&cells[c as usize], marker),
                Op::Update(c) => {
                    w.racy_update(&cells[c as usize], |v| v.wrapping_add(1));
                }
                Op::Critical => {
                    w.critical(&cs, || {
                        safe.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    });
                }
                Op::Atomic => w.atomic_add_f64(acc_site, &acc, 1.0),
                Op::Alias(c) => {
                    let (cell, site) = (&cells[c as usize], alias_sites[c as usize]);
                    w.ctx().gate_at(site, cell.addr(), AccessKind::Store, || {
                        if let Some(sink) = sink {
                            let (tid, addr) = (w.tid(), cell.addr());
                            sink.event(Event::Write { tid, addr, site });
                        }
                        cell.raw_store(marker);
                    });
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
