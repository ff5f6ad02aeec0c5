//! Record files are outside input: whatever the bytes, decoding returns a
//! typed [`TraceError::Corrupt`] — never a panic, and never an allocation
//! out of proportion to the input. This binary counts what it allocates, so
//! "in bounded memory" is asserted, not assumed.

use reomp::core::codec::{self, FLAG_CHUNKED, FLAG_COMPRESSED, FLAG_PLAN, FLAG_UNGATED};
use reomp::core::trace::ThreadTrace;
use reomp::core::verify::Tier;
use reomp::{DirStore, DomainPlan, Scheme, SiteId, TraceBundle, TraceError, TraceStore, Verifier};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
        PEAK.fetch_max(live, Relaxed);
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// One test at a time: the counters are the process's, so a test that
/// allocates while another one measures (building a 1 MiB input, say)
/// would count against the other's bound. Every test holds it throughout.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f` and return its result with the most bytes that were live during
/// it, beyond what was live when it started. The caller holds [`serial`].
fn peak_of<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let result = f();
    (result, PEAK.load(Relaxed).saturating_sub(before))
}

fn assert_corrupt<T: std::fmt::Debug>(result: Result<T, TraceError>, what: &str) {
    match result {
        Err(TraceError::Corrupt(_)) => {}
        other => panic!("{what}: expected Corrupt, got {other:?}"),
    }
}

/// Header of a per-thread DC stream, tid 0, as either version wrote it.
fn header(version: u8, flags: u8) -> Vec<u8> {
    let mut file = b"RTRC".to_vec();
    file.extend_from_slice(&[version, Scheme::Dc.code(), flags, 0, 0, 0, 0]);
    file
}

/// `v` as an LEB128 varint.
fn varint(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    out
}

/// `header | "RTCK" | nbytes | payload`.
fn one_chunk(version: u8, flags: u8, payload: &[u8]) -> Vec<u8> {
    let mut file = header(version, flags | FLAG_CHUNKED);
    file.extend_from_slice(b"RTCK");
    file.extend_from_slice(&varint(payload.len() as u64));
    file.extend_from_slice(payload);
    file
}

/// The decode bomb: a compressed chunk of `nbytes` whose payload claims
/// `nbytes × 4096` records in one run of delta 0, then zero padding. The
/// run is well formed and within the expansion bound, so only the exact-
/// length check can tell — and it has to come before the records do.
fn bomb(version: u8, nbytes: usize) -> Vec<u8> {
    let count = (nbytes * 4096) as u64;
    let run = if version == 1 { count } else { count << 1 | 1 };
    let mut payload = varint(count);
    payload.extend_from_slice(&varint(run));
    payload.push(0);
    payload.resize(nbytes, 0);
    one_chunk(version, FLAG_COMPRESSED, &payload)
}

#[test]
fn rle_decode_bomb_returns_corrupt_in_memory_bounded_by_the_input() {
    let _serial = serial();
    // The file of the report: 65 554 bytes asking for 268 435 456 records
    // (2 GiB of clocks, ten seconds, on the commit before the fix).
    let file = bomb(1, 65_536);
    assert_eq!(file.len(), 65_554);
    for (what, file) in [
        ("v1, 64 KiB", file),
        ("v2, 64 KiB", bomb(2, 65_536)),
        ("v1, 1 MiB", bomb(1, 1 << 20)),
        ("v2, 1 MiB", bomb(2, 1 << 20)),
    ] {
        let (result, peak) = peak_of(|| codec::decode_thread_records(&file));
        assert_corrupt(result, what);
        assert!(
            peak <= file.len(),
            "{what}: {peak} bytes live for {} of input",
            file.len()
        );
        let mut st = file.clone();
        st[..4].copy_from_slice(b"RTST");
        let (result, peak) = peak_of(|| codec::decode_st_records(&st));
        assert_corrupt(result, what);
        assert!(peak <= st.len(), "{what} (st): {peak} bytes live");
    }
}

#[test]
fn a_valid_run_still_may_not_outgrow_what_the_manifest_promises() {
    let _serial = serial();
    // A well-formed compressed stream (one run of 4096 × its size, exact
    // length) is legitimate to the codec; the store knows the recording's
    // total and cuts it short there, before the records are materialized.
    let dir = std::env::temp_dir().join(format!("reomp-hardening-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DirStore::new(&dir);
    let trace = ThreadTrace {
        values: (0..8).collect(),
        sites: None,
        kinds: None,
    };
    let bundle = TraceBundle {
        scheme: Scheme::Dc,
        nthreads: 1,
        domains: 1,
        threads: vec![trace],
        st: Vec::new(),
        plan: None,
        edges: Vec::new(),
        checkpoint: None,
    };
    store.save(&bundle).unwrap();
    let count = 5u64 * 4096;
    let mut payload = varint(count);
    payload.extend_from_slice(&varint(count << 1 | 1));
    payload.push(2);
    let forged = one_chunk(2, FLAG_COMPRESSED, &payload);
    assert_eq!(
        codec::decode_thread_records(&forged)
            .unwrap()
            .trace
            .values
            .len() as u64,
        count
    );
    std::fs::write(dir.join("thread_0.rtrc"), &forged).unwrap();
    let (result, peak) = peak_of(|| store.load());
    let _ = std::fs::remove_dir_all(&dir);
    assert_corrupt(result, "stream of 20 480 records under a manifest of 8");
    assert!(peak < 64 * 1024, "{peak} bytes live");
}

/// A chunk of three records over two labels, as the encoder writes it.
fn labelled_chunk() -> (Vec<u8>, usize) {
    let chunk =
        codec::encode_thread_chunk_opt(&[5, 6, 8], Some(&[7, 7, 9]), Some(&[1, 1, 0]), false);
    // "RTCK" | nbytes | count | three deltas | labels.
    (chunk.to_vec(), 4 + 1 + 1 + 3)
}

fn decode_chunk(version: u8, flags: u8, chunk: &[u8]) -> Result<codec::DecodedThread, TraceError> {
    let mut file = header(version, flags | FLAG_CHUNKED);
    file.extend_from_slice(chunk);
    codec::decode_thread_records(&file)
}

#[test]
fn malformed_label_columns_are_corrupt_not_panics() {
    let _serial = serial();
    const COLUMNS: u8 = 1 | 2; // sites | kinds
    let (good, labels) = labelled_chunk();
    let decoded = decode_chunk(2, COLUMNS, &good).unwrap();
    assert_eq!(decoded.trace.sites, Some(vec![7, 7, 9]));
    assert_eq!(decoded.trace.kinds, Some(vec![1, 1, 0]));
    assert_eq!(decoded.max_labels, 2);
    // index 0 | site 7 | kind 1 || index 0 || index 1 | site 9 | kind 0
    assert_eq!(good.len(), labels + 10 + 1 + 10);

    // A label index beyond the next unused one.
    let mut bad = good.clone();
    bad[labels + 10] = 2;
    assert_corrupt(decode_chunk(2, COLUMNS, &bad), "index past the table");
    let mut bad = good.clone();
    bad[labels] = 1;
    assert_corrupt(decode_chunk(2, COLUMNS, &bad), "first index not 0");

    // A kind code outside `AccessKind`.
    let mut bad = good.clone();
    bad[labels + 9] = 7;
    assert_corrupt(decode_chunk(2, COLUMNS, &bad), "kind code 7");

    // A literal cut short: every shorter payload, with its length patched.
    for cut in 1..good.len() - 5 {
        let mut bad = good[..good.len() - cut].to_vec();
        bad[4] -= cut as u8;
        assert_corrupt(decode_chunk(2, COLUMNS, &bad), "truncated payload");
    }

    // Bytes after the label column, inside the chunk's declared length.
    let mut bad = good.clone();
    bad.push(0);
    bad[4] += 1;
    assert_corrupt(decode_chunk(2, COLUMNS, &bad), "trailing byte");
    let mut one_shot = codec::encode_thread_trace(&decoded.trace, Scheme::Dc, 0).to_vec();
    assert!(codec::decode_thread_records(&one_shot).is_ok());
    one_shot.push(0);
    assert_corrupt(codec::decode_thread_records(&one_shot), "trailing byte");

    // A count beyond the chunk's bytes, on a stream whose every record
    // costs a label byte: rejected although the run structure is valid.
    for version in [1, 2] {
        let count = 1u64 << 40;
        let mut payload = varint(count);
        payload.extend_from_slice(&varint(if version == 1 { count } else { count << 1 | 1 }));
        payload.push(2);
        payload.extend_from_slice(&[0; 32]);
        let file = one_chunk(version, COLUMNS | FLAG_COMPRESSED, &payload);
        let (result, peak) = peak_of(|| codec::decode_thread_records(&file));
        assert_corrupt(result, "count beyond the chunk");
        assert!(peak <= 4096, "{peak} bytes live");
    }
}

#[test]
fn a_payload_under_the_other_versions_header_is_corrupt() {
    let _serial = serial();
    const COLUMNS: u8 = 1 | 2;
    let (v2_chunk, _) = labelled_chunk();
    assert_corrupt(decode_chunk(1, COLUMNS, &v2_chunk), "v2 payload, v1 header");

    // The same records as version 1 laid them out: raw columns.
    let mut payload = vec![3, 10, 2, 4];
    for site in [7u64, 7, 9] {
        payload.extend_from_slice(&site.to_le_bytes());
    }
    payload.extend_from_slice(&[1, 1, 0]);
    let v1_file = one_chunk(1, COLUMNS, &payload);
    let decoded = codec::decode_thread_records(&v1_file).unwrap();
    assert_eq!(decoded.version, 1);
    assert_eq!(decoded.trace.values, vec![5, 6, 8]);
    assert_eq!(decoded.trace.sites, Some(vec![7, 7, 9]));
    assert_eq!(decoded.max_labels, 0);
    assert_corrupt(
        codec::decode_thread_records(&one_chunk(2, COLUMNS, &payload)),
        "v1 payload, v2 header",
    );

    // Version 1's compressed chunks: all three columns as runs.
    let payload = [3, 1, 10, 1, 2, 1, 4, 1, 14, 1, 0, 1, 4, 2, 1, 1, 0];
    let v1_file = one_chunk(1, COLUMNS | FLAG_COMPRESSED, &payload);
    let decoded = codec::decode_thread_records(&v1_file).unwrap();
    assert_eq!(decoded.trace.values, vec![5, 6, 8]);
    assert_eq!(decoded.trace.sites, Some(vec![7, 7, 9]));
    assert_eq!(decoded.trace.kinds, Some(vec![1, 1, 0]));
    assert_corrupt(
        codec::decode_thread_records(&one_chunk(2, COLUMNS | FLAG_COMPRESSED, &payload)),
        "v1 compressed payload, v2 header",
    );
}

#[test]
fn a_plan_section_with_an_unknown_flag_is_corrupt() {
    let _serial = serial();
    let plan = DomainPlan::with_assignments(2, [(SiteId(3), 1)]);
    let good = codec::encode_plan(&plan).to_vec();
    assert_eq!(good[5], FLAG_PLAN);
    assert_eq!(codec::decode_plan(&good).unwrap(), plan);
    let mut closed = good.clone();
    closed[5] |= FLAG_UNGATED;
    assert_eq!(codec::decode_plan(&closed).unwrap(), plan.closed());
    // A reader that skipped a bit it does not know would misroute replay.
    for bit in (0..8).map(|b| 1u8 << b) {
        if bit & (FLAG_PLAN | FLAG_UNGATED) == 0 {
            let mut stray = good.clone();
            stray[5] |= bit;
            assert_corrupt(codec::decode_plan(&stray), &format!("flag {bit:#04x}"));
        }
    }
}

#[test]
fn a_forged_last_chunk_is_corrupt_before_the_valid_ones_are_decoded() {
    let _serial = serial();
    // Forty valid labelled chunks of 64 records, then one whose count no
    // byte count can hold; and, for a compressed stream without labels,
    // forty valid chunks and a decode bomb. Every chunk's count is read
    // and bounded before a column is allocated, so the valid chunks cost
    // nothing either: the old decoder grew 2 560 records' columns first.
    let values: Vec<u64> = (0..64).collect();
    let sites = [7u64; 64];
    let kinds = [1u8; 64];
    for compress in [false, true] {
        let columns = !compress;
        let mut file =
            codec::encode_thread_stream_header_opt(Scheme::Dc, 0, None, columns, columns, compress)
                .to_vec();
        for chunk in 0..40u64 {
            let values: Vec<u64> = values.iter().map(|v| chunk * 64 + v).collect();
            let (sites, kinds) = (columns.then_some(&sites[..]), columns.then_some(&kinds[..]));
            file.extend_from_slice(&codec::encode_thread_chunk_opt(
                &values, sites, kinds, compress,
            ));
        }
        let valid = codec::decode_thread_records(&file).unwrap();
        assert_eq!((valid.trace.len(), valid.chunks), (2_560, 40));
        if compress {
            file.extend_from_slice(&bomb(2, 4096)[11..]);
        } else {
            let mut payload = varint(1 << 40);
            payload.extend_from_slice(&[0; 32]);
            file.extend_from_slice(b"RTCK");
            file.extend_from_slice(&varint(payload.len() as u64));
            file.extend_from_slice(&payload);
        }
        let (result, peak) = peak_of(|| codec::decode_thread_records(&file));
        assert_corrupt(result, "forged last chunk");
        assert!(
            peak <= file.len(),
            "compress {compress}: {peak} bytes live for {} of input",
            file.len()
        );
    }
}

#[test]
fn an_st_kind_byte_outside_access_kind_is_corrupt_at_load() {
    let _serial = serial();
    // A version 1 ST stream copies its kind column as it is; the kind
    // check of the structural tier has to refuse byte 9 there, as it does
    // in a thread stream.
    let mut file = b"RTST".to_vec();
    file.extend_from_slice(&[1, Scheme::St.code(), 1 | 2, 0, 0, 0, 0]);
    file.extend_from_slice(&[2, 0, 0]); // two records, both of tid 0
    file.extend_from_slice(&[5; 16]); // sites
    file.extend_from_slice(&[0, 9]); // kinds
    let st = codec::decode_st_records(&file).unwrap().trace;
    assert_eq!(st.kinds, Some(vec![0, 9]));
    let bundle = TraceBundle {
        scheme: Scheme::St,
        nthreads: 1,
        domains: 1,
        threads: vec![ThreadTrace::default()],
        st: vec![st],
        plan: None,
        edges: Vec::new(),
        checkpoint: None,
    };
    assert_corrupt(bundle.validate(), "validate");
    let report = Verifier::new().verify(&bundle);
    assert_eq!(report.worst_tier(), Some(Tier::Structural), "{report}");

    let dir = std::env::temp_dir().join(format!("reomp-st-kind-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DirStore::new(&dir);
    let mut clean = bundle.clone();
    clean.st[0].kinds = Some(vec![0, 1]);
    store.save(&clean).unwrap();
    std::fs::write(dir.join("st.rtrc"), &file).unwrap();
    let result = store.load();
    let _ = std::fs::remove_dir_all(&dir);
    assert_corrupt(result, "DirStore::load");
}
