//! `reomp-inspect` — command-line trace inspector and verifier.
//!
//! ```text
//! reomp-inspect <trace-dir>                 summary + epoch histogram
//! reomp-inspect <trace-dir> --timeline [N]  first N accesses as lanes
//! reomp-inspect <trace-dir> --diff <dir2>   first divergence between runs
//! reomp-inspect <trace-dir> --window        flight-recorder window summary
//! reomp-inspect <trace-dir> --verify        static replayability verification
//! reomp-inspect --mpi <trace-dir>           rmpi (rank × domain) counts
//! reomp-inspect --mpi <trace-dir> --verify  rmpi static verification
//! ```
//!
//! `<trace-dir>` is a directory written by `DirStore` (one record file per
//! thread plus `manifest.txt`), e.g. the `REOMP_DIR` of a record run —
//! or, with `--mpi`, one written by `MpiTrace::save_dir` (one record file
//! per rank × receive-order domain). `--window` only applies to thread
//! trace dirs; combine rmpi window inspection into the plain `--mpi`
//! summary, which prints flight provenance when present.
//!
//! ## Exit codes
//!
//! | code | meaning |
//! |------|---------|
//! | 0 | success (`--verify`: clean — certificate printed) |
//! | 1 | cannot load the trace / `--diff` found a divergence / no window |
//! | 2 | usage error |
//! | 3 | `--verify`: structural corruption (bundle shape is wrong) |
//! | 4 | `--verify`: ordering unsoundness (replay would deadlock/diverge) |
//! | 5 | `--verify`: plan unsoundness (site partition loses ordering) |

use reomp::core::verify::Tier;
use reomp::core::{analysis, codec};
use reomp::{DirStore, EpochHistogram, MpiTrace, TraceStore, Verifier, VerifyReport};
use rmpi::MpiVerifier;
use std::process::ExitCode;

const USAGE: &str = "usage: reomp-inspect <trace-dir> [--timeline [N]] [--diff <trace-dir2>] \
[--window] [--verify]
       reomp-inspect --mpi <trace-dir> [--verify]

subcommands
  (none)       summary: records, domains, partition, flight provenance, what the record
               streams cost (format version, B/record, label tables), epoch histogram
  --timeline   render the first N accesses (default 40) as per-thread lanes
  --diff       compare against a second trace dir; exit 1 on the first divergence
  --window     flight-recorder breakdown (per-domain retained/evicted); thread dirs only,
               not combinable with --mpi (the --mpi summary prints window provenance)
  --verify     static replayability verification (structural/ordering/plan tiers);
               prints the certificate on a clean trace
  --mpi        treat <trace-dir> as an rmpi (rank × domain) receive-order trace

exit codes
  0  success; with --verify: all tiers clean, certificate printed
  1  trace cannot be loaded (corrupt/missing), --diff divergence, or no flight window
  2  usage error
  3  --verify: structural corruption
  4  --verify: ordering unsoundness
  5  --verify: plan unsoundness";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// Map a verify report to the documented per-tier exit code and print it.
fn report_exit(report: &VerifyReport) -> ExitCode {
    print!("{report}");
    match report.worst_tier() {
        None => ExitCode::SUCCESS,
        Some(Tier::Structural) => ExitCode::from(3),
        Some(Tier::Ordering) => ExitCode::from(4),
        Some(Tier::Plan) => ExitCode::from(5),
    }
}

/// `--verify` on a thread trace: the core tiers, then — when the bundle
/// carries validation columns and is otherwise clean — the offline race
/// sweep plus the static plan-soundness analysis folded into the same
/// report.
fn verify_bundle(bundle: &reomp::TraceBundle) -> ExitCode {
    let mut report = Verifier::new().verify(bundle);
    if report.is_clean() && bundle.has_validation() {
        match racedet::offline_report(bundle) {
            Ok(races) => {
                if !races.races.is_empty() {
                    println!(
                        "offline race sweep: {} race(s) on {} site(s) across {} events",
                        races.races.len(),
                        races.racy_sites().len(),
                        races.events_analysed
                    );
                }
                report.absorb(racedet::plan_soundness_diagnostics(bundle, &races));
            }
            Err(e) => eprintln!("reomp-inspect: offline race sweep skipped: {e}"),
        }
    }
    report_exit(&report)
}

/// Flight-recorder provenance: where the retained window starts and why
/// it was materialized. One line in the default summary; `--window` adds
/// the per-domain breakdown.
fn print_flight_provenance(bundle: &reomp::TraceBundle) {
    let Some(cp) = &bundle.checkpoint else {
        return;
    };
    println!(
        "flight dump: trigger {}, window {} chunk(s)/stream, clock base {:?}",
        cp.trigger, cp.window, cp.base
    );
}

/// What the record files of one stream family add up to.
#[derive(Default)]
struct Family {
    files: u64,
    bytes: u64,
    records: u64,
    versions: std::collections::BTreeSet<u8>,
    max_labels: u64,
}

/// One line per stream family — the per-thread streams, the shared ST
/// streams — saying what its bytes are: the format version, what a record
/// costs, and the largest label table any one chunk announces (many
/// distinct `(site, kind)` pairs per chunk is what makes a trace big).
fn print_stream_families(dir: &str) {
    let mut families = [("thread", Family::default()), ("st", Family::default())];
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for path in entries.flatten().map(|e| e.path()) {
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        let st = match name.strip_suffix(".rtrc") {
            Some(stem) if stem.starts_with("thread_") => false,
            Some(stem) if stem == "st" || stem.starts_with("st.") => true,
            _ => continue,
        };
        let Ok(bytes) = std::fs::read(&path) else {
            continue;
        };
        let decoded = if st {
            codec::decode_st_records(&bytes).map(|d| (d.trace.len(), d.version, d.max_labels))
        } else {
            codec::decode_thread_records(&bytes).map(|d| (d.trace.len(), d.version, d.max_labels))
        };
        let Ok((records, version, max_labels)) = decoded else {
            continue;
        };
        let family = &mut families[usize::from(st)].1;
        family.files += 1;
        family.bytes += bytes.len() as u64;
        family.records += records as u64;
        family.versions.insert(version);
        family.max_labels = family.max_labels.max(max_labels);
    }
    for (name, family) in families {
        if family.files == 0 {
            continue;
        }
        let versions: Vec<String> = family.versions.iter().map(|v| format!("v{v}")).collect();
        let per_record = match family.records {
            0 => "no records".to_string(),
            n => format!("{:.2} B/record", family.bytes as f64 / n as f64),
        };
        println!(
            "  {name} streams: format {}, {} files, {} bytes, {per_record}, \
             largest label table {}",
            versions.join("+"),
            family.files,
            family.bytes,
            family.max_labels,
        );
    }
}

fn inspect_window(bundle: &reomp::TraceBundle) -> ExitCode {
    let Some(cp) = &bundle.checkpoint else {
        println!("not a flight-recorder dump: no checkpoint (full recording)");
        return ExitCode::FAILURE;
    };
    println!(
        "flight window: {} chunk(s)/stream, materialized on {}",
        cp.window, cp.trigger
    );
    for dom in 0..bundle.domains {
        let retained = bundle.domain_records(dom);
        let base = cp.base_of(dom);
        println!(
            "  domain {dom}: clocks [{base}, {}) — {retained} retained, {base} evicted",
            base + retained
        );
        if let Some(floor) = cp.floors.get(dom as usize) {
            println!("    epoch floor at dump: {floor}");
        }
    }
    if !bundle.edges.is_empty() {
        println!(
            "  cross-domain edges surviving the window: {}",
            bundle.edges.len()
        );
    }
    ExitCode::SUCCESS
}

fn inspect_mpi(dir: &str, verify: bool) -> ExitCode {
    let trace = match MpiTrace::load_dir(std::path::Path::new(dir)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("reomp-inspect: cannot load rmpi trace {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if verify {
        return report_exit(&MpiVerifier::new().verify(&trace));
    }
    println!(
        "rmpi trace: {} ranks × {} domain(s), {} receives, {} waitany",
        trace.nranks(),
        trace.domains,
        trace.total_events(),
        trace.total_waitany()
    );
    match &trace.plan {
        Some(plan) => println!(
            "partition: planned ({} pinned sites, mixed-hash fallback)",
            plan.assigned()
        ),
        None if trace.domains > 1 => println!("partition: mixed-hash over receive sites"),
        None => println!("partition: single stream per rank"),
    }
    if let Some(cp) = &trace.checkpoint {
        let evicted: u64 = cp.recv_bases.iter().sum();
        println!(
            "flight dump: trigger {}, window {} event(s)/stream, {evicted} receives evicted",
            cp.trigger, cp.window
        );
    }
    for rank in 0..trace.nranks() {
        println!("rank {rank}: {} receives", trace.rank_events(rank));
        if trace.domains > 1 {
            // Per-rank-per-domain event counts: a lopsided split means
            // the receive-site partition is not spreading the load.
            for dom in 0..trace.domains {
                println!(
                    "  domain {dom}: {} receives, {} waitany",
                    trace.recv_stream(rank, dom).len(),
                    trace.waitany_stream(rank, dom).len()
                );
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--mpi") {
        let Some(dir) = args.get(1) else {
            return usage();
        };
        return match args.get(2).map(String::as_str) {
            None => inspect_mpi(dir, false),
            Some("--verify") => inspect_mpi(dir, true),
            Some(_) => usage(),
        };
    }
    let Some(dir) = args.first() else {
        return usage();
    };

    let store = DirStore::new(dir);
    let (bundle, io) = match store.load() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("reomp-inspect: cannot load {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };

    match args.get(1).map(String::as_str) {
        None => {
            // summarize() already computes the edge count and runs the
            // (potentially expensive) consistency merge once; reuse it.
            println!("{}", analysis::summarize(&bundle));
            print_flight_provenance(&bundle);
            if bundle.domains > 1 {
                // Per-domain record counts: a lopsided split means the
                // site→domain partition is not spreading the load.
                for dom in 0..bundle.domains {
                    println!("  domain {dom}: {} records", bundle.domain_records(dom));
                }
                match &bundle.plan {
                    Some(plan) => println!(
                        "  partition: planned ({} pinned sites, mixed-hash fallback)",
                        plan.assigned()
                    ),
                    None => println!("  partition: legacy modulo (no plan)"),
                }
            }
            if io.chunks > 0 {
                println!(
                    "trace files: {} ({} bytes, streamed as {} chunks)",
                    io.files, io.bytes, io.chunks
                );
            } else {
                println!(
                    "trace files: {} ({} bytes, one-shot layout)",
                    io.files, io.bytes
                );
            }
            print_stream_families(dir);
            let hist = EpochHistogram::from_bundle(&bundle);
            println!("{hist}");
            ExitCode::SUCCESS
        }
        Some("--verify") => verify_bundle(&bundle),
        Some("--window") => inspect_window(&bundle),
        Some("--timeline") => {
            let n = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(40usize);
            print!("{}", analysis::ascii_timeline(&bundle, n));
            ExitCode::SUCCESS
        }
        Some("--diff") => {
            let Some(dir2) = args.get(2) else {
                return usage();
            };
            let other = match DirStore::new(dir2).load() {
                Ok((b, _)) => b,
                Err(e) => {
                    eprintln!("reomp-inspect: cannot load {dir2}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let d = analysis::diff(&bundle, &other);
            println!("{d}");
            if matches!(d, analysis::TraceDiff::Equal) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Some(_) => usage(),
    }
}
