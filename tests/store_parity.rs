//! Parity of the persistence layer with commit `4e25452` (the last one with
//! a separate `MemStore` and `DirStore` implementation).
//!
//! Every way a trace reaches a store — one-shot save, chunked save, chunked
//! and compressed save, a streaming session, a flight dump — is run for
//! {ST, DC, DE} × D ∈ {1, 2} against both stores. The `IoReport`s of the
//! write and of the load, the directory listing and a digest of every file
//! are compared with literals captured by running this same file on that
//! commit: the bench's `trace_bytes_per_op` is `MemStore::save(..).bytes`,
//! and recordings made by either side of the refactor must load on the other.
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

/// One table row, in the source form of [`PARENT`]'s entries.
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

/// Captured on `4e25452`.
#[rustfmt::skip]
const PARENT: &[Row] = &[
    (OneShot, St, 1, (156, 3, 0), (156, 3, 0), (202, 4, 0), (156, 4, 0), "manifest.txt st.rtrc thread_0.rtrc thread_1.rtrc", 0x2ce89f731e4aaa13),
    (OneShot, St, 2, (396, 8, 0), (396, 8, 0), (467, 9, 0), (396, 9, 0), "edges.rtrc manifest.txt plan.rtrc st.d0.rtrc st.d1.rtrc thread_0.d0.rtrc thread_0.d1.rtrc thread_1.d0.rtrc thread_1.d1.rtrc", 0x9c66cc7f3599d508),
    (OneShot, Dc, 1, (144, 2, 0), (144, 2, 0), (190, 3, 0), (144, 3, 0), "manifest.txt thread_0.rtrc thread_1.rtrc", 0x21c14314e7466718),
    (OneShot, Dc, 2, (364, 6, 0), (364, 6, 0), (435, 7, 0), (364, 7, 0), "edges.rtrc manifest.txt plan.rtrc thread_0.d0.rtrc thread_0.d1.rtrc thread_1.d0.rtrc thread_1.d1.rtrc", 0x5d8f0ff4f95f81a4),
    (OneShot, De, 1, (144, 2, 0), (144, 2, 0), (190, 3, 0), (144, 3, 0), "manifest.txt thread_0.rtrc thread_1.rtrc", 0x2dd1b0acf3eb7e14),
    (OneShot, De, 2, (364, 6, 0), (364, 6, 0), (435, 7, 0), (364, 7, 0), "edges.rtrc manifest.txt plan.rtrc thread_0.d0.rtrc thread_0.d1.rtrc thread_1.d0.rtrc thread_1.d1.rtrc", 0xf34aa1e0ef076502),
    (Chunked, St, 1, (171, 3, 3), (171, 3, 3), (217, 4, 3), (171, 4, 3), "manifest.txt st.rtrc thread_0.rtrc thread_1.rtrc", 0xd48750c8400ce10b),
    (Chunked, St, 2, (426, 8, 6), (426, 8, 6), (497, 9, 6), (426, 9, 6), "edges.rtrc manifest.txt plan.rtrc st.d0.rtrc st.d1.rtrc thread_0.d0.rtrc thread_0.d1.rtrc thread_1.d0.rtrc thread_1.d1.rtrc", 0x9ae3f0e0d841cd3e),
    (Chunked, Dc, 1, (166, 2, 4), (166, 2, 4), (212, 3, 4), (166, 3, 4), "manifest.txt thread_0.rtrc thread_1.rtrc", 0x1e5dc2e1d5b937d6),
    (Chunked, Dc, 2, (408, 6, 8), (408, 6, 8), (479, 7, 8), (408, 7, 8), "edges.rtrc manifest.txt plan.rtrc thread_0.d0.rtrc thread_0.d1.rtrc thread_1.d0.rtrc thread_1.d1.rtrc", 0xc999012344219394),
    (Chunked, De, 1, (166, 2, 4), (166, 2, 4), (212, 3, 4), (166, 3, 4), "manifest.txt thread_0.rtrc thread_1.rtrc", 0x2aa79fddcf963a18),
    (Chunked, De, 2, (408, 6, 8), (408, 6, 8), (479, 7, 8), (408, 7, 8), "edges.rtrc manifest.txt plan.rtrc thread_0.d0.rtrc thread_0.d1.rtrc thread_1.d0.rtrc thread_1.d1.rtrc", 0x62cb8b90c20890d2),
    (Compressed, St, 1, (114, 3, 3), (114, 3, 3), (160, 4, 3), (114, 4, 3), "manifest.txt st.rtrc thread_0.rtrc thread_1.rtrc", 0x31cdd84e5c666d3e),
    (Compressed, St, 2, (312, 8, 6), (312, 8, 6), (383, 9, 6), (312, 9, 6), "edges.rtrc manifest.txt plan.rtrc st.d0.rtrc st.d1.rtrc thread_0.d0.rtrc thread_0.d1.rtrc thread_1.d0.rtrc thread_1.d1.rtrc", 0xf8b5756e82784d8e),
    (Compressed, Dc, 1, (114, 2, 4), (114, 2, 4), (160, 3, 4), (114, 3, 4), "manifest.txt thread_0.rtrc thread_1.rtrc", 0x3ea3e22b13a0fa95),
    (Compressed, Dc, 2, (304, 6, 8), (304, 6, 8), (375, 7, 8), (304, 7, 8), "edges.rtrc manifest.txt plan.rtrc thread_0.d0.rtrc thread_0.d1.rtrc thread_1.d0.rtrc thread_1.d1.rtrc", 0x2503b3bd6fd3467e),
    (Compressed, De, 1, (112, 2, 4), (112, 2, 4), (158, 3, 4), (112, 3, 4), "manifest.txt thread_0.rtrc thread_1.rtrc", 0xef40281579c34717),
    (Compressed, De, 2, (300, 6, 8), (300, 6, 8), (371, 7, 8), (300, 7, 8), "edges.rtrc manifest.txt plan.rtrc thread_0.d0.rtrc thread_0.d1.rtrc thread_1.d0.rtrc thread_1.d1.rtrc", 0x7b92f391a7b26cc4),
    (Streaming, St, 1, (1183, 3, 25), (1183, 3, 25), (1230, 4, 25), (1183, 4, 25), "manifest.txt st.rtrc thread_0.rtrc thread_1.rtrc", 0xc0652b54876d21a0),
    (Streaming, St, 2, (1318, 8, 25), (1318, 8, 25), (1390, 9, 25), (1318, 9, 25), "edges.rtrc manifest.txt plan.rtrc st.d0.rtrc st.d1.rtrc thread_0.d0.rtrc thread_0.d1.rtrc thread_1.d0.rtrc thread_1.d1.rtrc", 0xa53eb6c40bc3a0a2),
    (Streaming, Dc, 1, (1180, 2, 25), (1180, 2, 25), (1227, 3, 25), (1180, 3, 25), "manifest.txt thread_0.rtrc thread_1.rtrc", 0xd2008170d563ac14),
    (Streaming, Dc, 2, (1288, 6, 25), (1288, 6, 25), (1360, 7, 25), (1288, 7, 25), "edges.rtrc manifest.txt plan.rtrc thread_0.d0.rtrc thread_0.d1.rtrc thread_1.d0.rtrc thread_1.d1.rtrc", 0xa9ce373ea25e6a8a),
    (Streaming, De, 1, (1181, 2, 25), (1181, 2, 25), (1228, 3, 25), (1181, 3, 25), "manifest.txt thread_0.rtrc thread_1.rtrc", 0xbaaa4e678692464f),
    (Streaming, De, 2, (1288, 6, 25), (1288, 6, 25), (1360, 7, 25), (1288, 7, 25), "edges.rtrc manifest.txt plan.rtrc thread_0.d0.rtrc thread_0.d1.rtrc thread_1.d0.rtrc thread_1.d1.rtrc", 0x4176d1b68819c76c),
    (Flight, St, 1, (139, 4, 2), (139, 4, 2), (197, 5, 2), (139, 5, 2), "checkpoint.rtrc manifest.txt st.rtrc thread_0.rtrc thread_1.rtrc", 0x4a33dc3d524b8cf2),
    (Flight, St, 2, (349, 9, 4), (349, 9, 4), (433, 10, 4), (349, 10, 4), "checkpoint.rtrc edges.rtrc manifest.txt plan.rtrc st.d0.rtrc st.d1.rtrc thread_0.d0.rtrc thread_0.d1.rtrc thread_1.d0.rtrc thread_1.d1.rtrc", 0x985a7de526a95eca),
    (Flight, Dc, 1, (214, 3, 4), (214, 3, 4), (273, 4, 4), (214, 4, 4), "checkpoint.rtrc manifest.txt thread_0.rtrc thread_1.rtrc", 0x1a3baab5f5445cea),
    (Flight, Dc, 2, (489, 7, 8), (489, 7, 8), (573, 8, 8), (489, 8, 8), "checkpoint.rtrc edges.rtrc manifest.txt plan.rtrc thread_0.d0.rtrc thread_0.d1.rtrc thread_1.d0.rtrc thread_1.d1.rtrc", 0xdbcc54d9d1a17f93),
    (Flight, De, 1, (155, 3, 4), (155, 3, 4), (213, 4, 4), (155, 4, 4), "checkpoint.rtrc manifest.txt thread_0.rtrc thread_1.rtrc", 0xd8cc49d110b5417d),
    (Flight, De, 2, (425, 7, 8), (425, 7, 8), (509, 8, 8), (425, 8, 8), "checkpoint.rtrc edges.rtrc manifest.txt plan.rtrc thread_0.d0.rtrc thread_0.d1.rtrc thread_1.d0.rtrc thread_1.d1.rtrc", 0x83863b35b1acc384),
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
    let pinned: Vec<String> = PARENT
        .iter()
        .map(|(via, scheme, domains, mw, ml, dw, dl, listing, digest)| {
            format!(
                "({via:?}, {scheme:?}, {domains}, {mw:?}, {ml:?}, {dw:?}, {dl:?}, {listing:?}, {digest:#018x}),"
            )
        })
        .collect();
    assert!(
        now == pinned,
        "persistence no longer matches 4e25452; the table is now:\n{}",
        now.join("\n")
    );
}
