//! The persistence layer's reports and bytes, pinned.
//!
//! Every way a trace reaches a store — one-shot save, chunked save, chunked
//! and compressed save, a streaming session, a flight dump — is run for
//! {ST, DC, DE} × D ∈ {1, 2} against both stores. The `IoReport`s of the
//! write and of the load, the directory listing and a digest of every file
//! are compared with literals captured by running this same file: the
//! bench's `trace_bytes_per_op` is `MemStore::save(..).bytes`. The file and
//! chunk counts and the listings date from commit `4e25452` (the last one
//! with a separate `MemStore` and `DirStore` implementation) and have not
//! moved since; the byte counts and digests are those of format version 2.
//!
//! On a mismatch the test prints the whole table as it is now, in source form.

use reomp::core::trace::{StTrace, ThreadTrace};
use reomp::{
    AccessKind, CrossDomainEdge, DirStore, DomainPlan, DumpTrigger, IoReport, MemStore,
    RecordOptions, RecordSink, Scheme, Session, SessionConfig, SiteId, StreamingTraceStore,
    TraceBundle, TraceError, TraceStore,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use Scheme::{Dc, De, St};
use Via::{Chunked, Compressed, Flight, OneShot, Streaming};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Via {
    OneShot,
    Chunked,
    Compressed,
    Streaming,
    Flight,
}

const VIAS: [Via; 5] = [OneShot, Chunked, Compressed, Streaming, Flight];

/// Sites 0x900/0x902 live in domain 0 and 0x901/0x903 in domain 1, under
/// the plan and under the legacy `site % D` partition alike.
fn plan(domains: u32) -> Option<DomainPlan> {
    (domains > 1).then(|| {
        DomainPlan::with_assignments(
            domains,
            (0..4u64).map(|i| (SiteId(0x900 + i), (i % 2) as u32)),
        )
    })
}

/// A hand-built bundle (so the three save paths do not depend on what the
/// gates record): 12 accesses per domain, thread `(c / 3) % 2` makes access
/// `c`; D = 2 adds a plan and one cross-domain edge.
fn table_bundle(scheme: Scheme, domains: u32) -> TraceBundle {
    const PER_DOMAIN: u64 = 12;
    let mut threads = Vec::new();
    let mut st = Vec::new();
    for dom in 0..u64::from(domains) {
        let site = |c: u64| 0x900 + dom + 2 * (c % 2);
        let kind = |c: u64| u8::from(c.is_multiple_of(3));
        let owner = |c: u64| (c / 3) % 2;
        for tid in 0..2u64 {
            let mine: Vec<u64> = (0..PER_DOMAIN)
                .filter(|&c| scheme != Scheme::St && owner(c) == tid)
                .collect();
            threads.push(ThreadTrace {
                values: match scheme {
                    Scheme::De => mine.iter().map(|c| c - c % 3).collect(),
                    _ => mine.clone(),
                },
                sites: Some(mine.iter().map(|&c| site(c)).collect()),
                kinds: Some(mine.iter().map(|&c| kind(c)).collect()),
            });
        }
        if scheme == Scheme::St {
            st.push(StTrace {
                tids: (0..PER_DOMAIN).map(|c| owner(c) as u32).collect(),
                sites: Some((0..PER_DOMAIN).map(site).collect()),
                kinds: Some((0..PER_DOMAIN).map(kind).collect()),
            });
        }
    }
    let edges = if domains > 1 {
        vec![CrossDomainEdge {
            domain: 1,
            thread: 0,
            seq: 1,
            waits: vec![(0, 4)],
        }]
    } else {
        Vec::new()
    };
    let bundle = TraceBundle {
        scheme,
        nthreads: 2,
        domains,
        threads,
        st,
        plan: plan(domains),
        edges,
        checkpoint: None,
    };
    bundle.validate().expect("the table bundle is consistent");
    bundle
}

/// A deterministic gate sequence driven from the calling thread; the
/// criticals stamp cross-domain edges when D > 1.
fn drive(session: &Arc<Session>) {
    let c0 = session.register_thread(0);
    let c1 = session.register_thread(1);
    for i in 0..24u64 {
        let site = SiteId(0x900 + i % 4);
        c0.gate(site, AccessKind::Load, || ());
        c1.gate(site, AccessKind::Store, || ());
        c0.gate(site, AccessKind::Store, || ());
        c1.gate(site, AccessKind::Load, || ());
        if i % 6 == 5 {
            c1.gate(SiteId(0x900 + (i + 1) % 4), AccessKind::Critical, || ());
        }
    }
}

fn session_cfg(domains: u32, flight: Option<u32>) -> SessionConfig {
    SessionConfig {
        flush_records: 4,
        domains,
        plan: plan(domains),
        flight,
        ..SessionConfig::default()
    }
}

/// `Session::record_flight` takes its target store by value; this keeps a
/// handle to load from afterwards.
struct Shared<S>(Arc<S>);

impl<S: StreamingTraceStore> TraceStore for Shared<S> {
    fn save(&self, bundle: &TraceBundle) -> Result<IoReport, TraceError> {
        self.0.save(bundle)
    }
    fn load(&self) -> Result<(TraceBundle, IoReport), TraceError> {
        self.0.load()
    }
}

impl<S: StreamingTraceStore> StreamingTraceStore for Shared<S> {
    fn begin_record(&self, opts: RecordOptions) -> Result<Box<dyn RecordSink>, TraceError> {
        self.0.begin_record(opts)
    }
}

/// Put a trace into `store` by way of `via`; returns the write's report
/// and, where the bundle is known beforehand, what must load back.
fn write<S: StreamingTraceStore + 'static>(
    store: &Arc<S>,
    via: Via,
    scheme: Scheme,
    domains: u32,
) -> (IoReport, Option<TraceBundle>) {
    match via {
        Via::OneShot | Via::Chunked | Via::Compressed => {
            let bundle = table_bundle(scheme, domains);
            let io = match via {
                Via::OneShot => store.save(&bundle),
                _ => store.save_chunked_opt(&bundle, 5, via == Via::Compressed),
            };
            (io.expect("save"), Some(bundle))
        }
        Via::Streaming => {
            let reference = Session::record_with(scheme, 2, session_cfg(domains, None));
            drive(&reference);
            let reference = reference.finish().expect("finish").bundle;
            let session =
                Session::record_streaming_with(scheme, 2, session_cfg(domains, None), &**store)
                    .expect("streaming session");
            drive(&session);
            let io = session.finish().expect("finish").io;
            (io.expect("a streaming run reports its io"), reference)
        }
        Via::Flight => {
            let cfg = session_cfg(domains, Some(2));
            let session = Session::record_flight(scheme, 2, cfg, Shared(Arc::clone(store)))
                .expect("flight session");
            drive(&session);
            (session.dump(DumpTrigger::Manual).expect("dump"), None)
        }
    }
}

fn counts(io: IoReport) -> Counts {
    (io.bytes, io.files, io.chunks)
}

/// Sorted file names of `dir`, and an FNV-1a digest over every name and
/// every file's contents.
fn listing_and_digest(dir: &Path) -> (String, u64) {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("read trace dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for name in &names {
        let contents = std::fs::read(dir.join(name)).expect("read trace file");
        eat(name.as_bytes());
        eat(&(contents.len() as u64).to_le_bytes());
        eat(&contents);
    }
    (names.join(" "), digest)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("reomp-parity-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One table row, in the source form of [`PINNED`]'s entries.
fn measure(via: Via, scheme: Scheme, domains: u32) -> String {
    let tag = format!("{via:?}-{}-{domains}", scheme.name());

    let mem = Arc::new(MemStore::new());
    let (mem_write, expect) = write(&mem, via, scheme, domains);
    let (mem_bundle, mem_load) = mem.load().expect("mem load");

    let dir = scratch_dir(&tag);
    let store = Arc::new(DirStore::new(&dir));
    let (dir_write, _) = write(&store, via, scheme, domains);
    let (dir_bundle, dir_load) = store.load().expect("dir load");
    let (listing, digest) = listing_and_digest(&dir);
    let _ = std::fs::remove_dir_all(&dir);

    mem_bundle.validate().expect("loaded bundle is consistent");
    assert_eq!(mem_bundle, dir_bundle, "{tag}: the two stores disagree");
    if let Some(expect) = expect {
        assert_eq!(mem_bundle, expect, "{tag}: loaded ≠ saved");
    }
    assert_eq!(
        mem_bundle.checkpoint.is_some(),
        via == Via::Flight,
        "{tag}: only a dump is checkpointed"
    );

    format!(
        "({via:?}, {scheme:?}, {domains}, {:?}, {:?}, {:?}, {:?}, {listing:?}, {digest:#018x}),",
        counts(mem_write),
        counts(mem_load),
        counts(dir_write),
        counts(dir_load),
    )
}

/// An `IoReport` as `(bytes, files, chunks)`.
type Counts = (u64, u64, u64);

/// `(via, scheme, D, MemStore write, MemStore load, DirStore write,
/// DirStore load, directory listing, digest)`.
type Row = (
    Via,
    Scheme,
    u32,
    Counts,
    Counts,
    Counts,
    Counts,
    &'static str,
    u64,
);

/// Files, chunks and listings as captured on `4e25452`; bytes and digests
/// re-captured when record streams became version 2 (label column).
#[rustfmt::skip]
const PINNED: &[Row] = &[
    (OneShot, St, 1, (96, 3, 0), (96, 3, 0), (142, 4, 0), (96, 4, 0), "manifest.txt st.rtrc thread_0.rtrc thread_1.rtrc", 0xea919d562211e5b6),
    (OneShot, St, 2, (276, 8, 0), (276, 8, 0), (347, 9, 0), (276, 9, 0), "edges.rtrc manifest.txt plan.rtrc st.d0.rtrc st.d1.rtrc thread_0.d0.rtrc thread_0.d1.rtrc thread_1.d0.rtrc thread_1.d1.rtrc", 0x0091a6027415ff24),
    (OneShot, Dc, 1, (102, 2, 0), (102, 2, 0), (148, 3, 0), (102, 3, 0), "manifest.txt thread_0.rtrc thread_1.rtrc", 0xa448b28c77ac8962),
    (OneShot, Dc, 2, (280, 6, 0), (280, 6, 0), (351, 7, 0), (280, 7, 0), "edges.rtrc manifest.txt plan.rtrc thread_0.d0.rtrc thread_0.d1.rtrc thread_1.d0.rtrc thread_1.d1.rtrc", 0x150e7300a7efdcc4),
    (OneShot, De, 1, (102, 2, 0), (102, 2, 0), (148, 3, 0), (102, 3, 0), "manifest.txt thread_0.rtrc thread_1.rtrc", 0x02ebbf5df5623c2c),
    (OneShot, De, 2, (280, 6, 0), (280, 6, 0), (351, 7, 0), (280, 7, 0), "edges.rtrc manifest.txt plan.rtrc thread_0.d0.rtrc thread_0.d1.rtrc thread_1.d0.rtrc thread_1.d1.rtrc", 0xdaf41cd31bd818ee),
    (Chunked, St, 1, (165, 3, 3), (165, 3, 3), (211, 4, 3), (165, 4, 3), "manifest.txt st.rtrc thread_0.rtrc thread_1.rtrc", 0xac4067b0fbc3b807),
    (Chunked, St, 2, (414, 8, 6), (414, 8, 6), (485, 9, 6), (414, 9, 6), "edges.rtrc manifest.txt plan.rtrc st.d0.rtrc st.d1.rtrc thread_0.d0.rtrc thread_0.d1.rtrc thread_1.d0.rtrc thread_1.d1.rtrc", 0x783faea1bdf1fb2e),
    (Chunked, Dc, 1, (142, 2, 4), (142, 2, 4), (188, 3, 4), (142, 3, 4), "manifest.txt thread_0.rtrc thread_1.rtrc", 0x2568b4ffac456b52),
    (Chunked, Dc, 2, (360, 6, 8), (360, 6, 8), (431, 7, 8), (360, 7, 8), "edges.rtrc manifest.txt plan.rtrc thread_0.d0.rtrc thread_0.d1.rtrc thread_1.d0.rtrc thread_1.d1.rtrc", 0xcabf35f29f41d84c),
    (Chunked, De, 1, (142, 2, 4), (142, 2, 4), (188, 3, 4), (142, 3, 4), "manifest.txt thread_0.rtrc thread_1.rtrc", 0x96b689105d36af6c),
    (Chunked, De, 2, (360, 6, 8), (360, 6, 8), (431, 7, 8), (360, 7, 8), "edges.rtrc manifest.txt plan.rtrc thread_0.d0.rtrc thread_0.d1.rtrc thread_1.d0.rtrc thread_1.d1.rtrc", 0x83990e08b5edb022),
    (Compressed, St, 1, (168, 3, 3), (168, 3, 3), (214, 4, 3), (168, 4, 3), "manifest.txt st.rtrc thread_0.rtrc thread_1.rtrc", 0x1ac613bf14c3eef8),
    (Compressed, St, 2, (420, 8, 6), (420, 8, 6), (491, 9, 6), (420, 9, 6), "edges.rtrc manifest.txt plan.rtrc st.d0.rtrc st.d1.rtrc thread_0.d0.rtrc thread_0.d1.rtrc thread_1.d0.rtrc thread_1.d1.rtrc", 0xcf07f8527eb09b50),
    (Compressed, Dc, 1, (146, 2, 4), (146, 2, 4), (192, 3, 4), (146, 3, 4), "manifest.txt thread_0.rtrc thread_1.rtrc", 0x57e3dfbb47822f8a),
    (Compressed, Dc, 2, (368, 6, 8), (368, 6, 8), (439, 7, 8), (368, 7, 8), "edges.rtrc manifest.txt plan.rtrc thread_0.d0.rtrc thread_0.d1.rtrc thread_1.d0.rtrc thread_1.d1.rtrc", 0x1dff07803fc06b28),
    (Compressed, De, 1, (146, 2, 4), (146, 2, 4), (192, 3, 4), (146, 3, 4), "manifest.txt thread_0.rtrc thread_1.rtrc", 0x9619a3a1982209f4),
    (Compressed, De, 2, (368, 6, 8), (368, 6, 8), (439, 7, 8), (368, 7, 8), "edges.rtrc manifest.txt plan.rtrc thread_0.d0.rtrc thread_0.d1.rtrc thread_1.d0.rtrc thread_1.d1.rtrc", 0xe70bc9183fa00486),
    (Streaming, St, 1, (1067, 3, 25), (1067, 3, 25), (1114, 4, 25), (1067, 4, 25), "manifest.txt st.rtrc thread_0.rtrc thread_1.rtrc", 0xc7595c7e70d6a9cb),
    (Streaming, St, 2, (1094, 8, 25), (1094, 8, 25), (1166, 9, 25), (1094, 9, 25), "edges.rtrc manifest.txt plan.rtrc st.d0.rtrc st.d1.rtrc thread_0.d0.rtrc thread_0.d1.rtrc thread_1.d0.rtrc thread_1.d1.rtrc", 0x0e190db1078f2776),
    (Streaming, Dc, 1, (1280, 2, 25), (1280, 2, 25), (1327, 3, 25), (1280, 3, 25), "manifest.txt thread_0.rtrc thread_1.rtrc", 0x1b6203d9a3fa7978),
    (Streaming, Dc, 2, (1388, 6, 25), (1388, 6, 25), (1460, 7, 25), (1388, 7, 25), "edges.rtrc manifest.txt plan.rtrc thread_0.d0.rtrc thread_0.d1.rtrc thread_1.d0.rtrc thread_1.d1.rtrc", 0xa0c4d2efaf3e4f02),
    (Streaming, De, 1, (1281, 2, 25), (1281, 2, 25), (1328, 3, 25), (1281, 3, 25), "manifest.txt thread_0.rtrc thread_1.rtrc", 0x2060a68e074187ba),
    (Streaming, De, 2, (1370, 6, 25), (1370, 6, 25), (1442, 7, 25), (1370, 7, 25), "edges.rtrc manifest.txt plan.rtrc thread_0.d0.rtrc thread_0.d1.rtrc thread_1.d0.rtrc thread_1.d1.rtrc", 0xf9e846bc27d2b46f),
    (Flight, St, 1, (129, 4, 2), (129, 4, 2), (187, 5, 2), (129, 5, 2), "checkpoint.rtrc manifest.txt st.rtrc thread_0.rtrc thread_1.rtrc", 0x40be94217e2099ce),
    (Flight, St, 2, (311, 9, 4), (311, 9, 4), (395, 10, 4), (311, 10, 4), "checkpoint.rtrc edges.rtrc manifest.txt plan.rtrc st.d0.rtrc st.d1.rtrc thread_0.d0.rtrc thread_0.d1.rtrc thread_1.d0.rtrc thread_1.d1.rtrc", 0x2eb016a38a2fab9c),
    (Flight, Dc, 1, (229, 3, 4), (229, 3, 4), (288, 4, 4), (229, 4, 4), "checkpoint.rtrc manifest.txt thread_0.rtrc thread_1.rtrc", 0x603f1442d4c5d06f),
    (Flight, Dc, 2, (519, 7, 8), (519, 7, 8), (603, 8, 8), (519, 8, 8), "checkpoint.rtrc edges.rtrc manifest.txt plan.rtrc thread_0.d0.rtrc thread_0.d1.rtrc thread_1.d0.rtrc thread_1.d1.rtrc", 0x64a4cfdd4b9fe0da),
    (Flight, De, 1, (164, 3, 4), (164, 3, 4), (222, 4, 4), (164, 4, 4), "checkpoint.rtrc manifest.txt thread_0.rtrc thread_1.rtrc", 0x641c363440eeeb64),
    (Flight, De, 2, (449, 7, 8), (449, 7, 8), (533, 8, 8), (449, 8, 8), "checkpoint.rtrc edges.rtrc manifest.txt plan.rtrc thread_0.d0.rtrc thread_0.d1.rtrc thread_1.d0.rtrc thread_1.d1.rtrc", 0x7cc484e74518495e),
];

#[test]
fn reports_and_bytes_match_the_parent_commit() {
    let mut now = Vec::new();
    for via in VIAS {
        for scheme in [St, Dc, De] {
            for domains in [1, 2] {
                now.push(measure(via, scheme, domains));
            }
        }
    }
    let pinned: Vec<String> = PINNED
        .iter()
        .map(|(via, scheme, domains, mw, ml, dw, dl, listing, digest)| {
            format!(
                "({via:?}, {scheme:?}, {domains}, {mw:?}, {ml:?}, {dw:?}, {dl:?}, {listing:?}, {digest:#018x}),"
            )
        })
        .collect();
    assert!(
        now == pinned,
        "persistence no longer matches the pinned table; it is now:\n{}",
        now.join("\n")
    );
}
