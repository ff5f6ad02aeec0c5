//! Record-file storage.
//!
//! DC/DE recording owes much of its advantage to the record-file *layout*:
//! one file per thread, written and read independently (§IV-C1), versus
//! ST's single shared file — on a file system whose usage ultimately
//! bounds record-and-replay scalability (§II-B). This module is that
//! layout, in two layers:
//!
//! * A **blob backend** ([`Blobs`]) that knows nothing about traces: named
//!   byte blobs that can be listed, read, removed, written whole, or
//!   streamed (`create`, `append`…, `publish`), and a `commit` that writes
//!   one last blob after everything else is durable. [`DirBlobs`] keeps one
//!   file per blob in a directory (the paper uses tmpfs;
//!   `std::env::temp_dir()` is tmpfs on the evaluation platform);
//!   [`MemBlobs`] is a name → bytes map for tests and microbenches.
//! * One **trace layer** over any backend, [`Store`]: stream and section
//!   naming, the manifest, the stale-blob rule, the one-shot `save`, the
//!   streaming [`RecordSink`], `load` with its cross-checks, and
//!   [`IoReport`] accounting. [`DirStore`] and [`MemStore`] are
//!   `Store<DirBlobs>` and `Store<MemBlobs>`; both go through the binary
//!   [`codec`], so they exercise the same encode/decode path.
//!
//! # Layout
//!
//! `manifest.txt`, one `thread_<tid>.rtrc` per thread, `st.rtrc` for ST,
//! and the optional sections `plan.rtrc` (the [`DomainPlan`]), `edges.rtrc`
//! (cross-domain happens-before edges) and `checkpoint.rtrc` (the
//! [`Checkpoint`] of a flight-recorder dump). A recording made with `D > 1`
//! gate domains (see
//! [`SessionConfig::domains`](crate::session::SessionConfig::domains))
//! stores one record stream per thread **per domain** —
//! `thread_<tid>.d<dom>.rtrc`, `st.d<dom>.rtrc` — and its manifest carries a
//! `domains D` line. Single-domain recordings keep the classic names and
//! manifest, byte for byte, so traces from before gate domains existed load
//! unchanged; likewise the `plan`/`edges`/`checkpoint` manifest lines exist
//! only when the section does.
//!
//! # Commit protocol
//!
//! Every write — `save`, `save_chunked`, a streaming recording — runs the
//! same steps, so a crash at any point leaves the store either unloadable
//! ([`TraceError::Empty`]) or holding one fully consistent bundle; it can
//! never pair a new manifest with old record blobs:
//!
//! 1. remove the manifest, the one blob `load` keys on;
//! 2. remove *stale* blobs the new layout will not overwrite (threads
//!    beyond the new thread count, domain-tagged names beyond the new
//!    domain count or of the other naming scheme, an ST stream the new
//!    scheme lacks, old sections, unpublished leftovers of an interrupted
//!    write), so a store reused across schemes, thread counts or domain
//!    counts cannot mix runs;
//! 3. write the record streams, then the sections, each atomically (for
//!    [`DirBlobs`]: a `*.tmp` sibling, fsynced, then `rename`d into place);
//! 4. commit the manifest **last** (for [`DirBlobs`]: written like any
//!    blob, then a best-effort directory fsync).
//!
//! A streaming recording dropped without [`RecordSink::commit`] stops
//! after step 2 and sweeps its unpublished streams.
//!
//! On load, the manifest is outside input: the stream count it declares is
//! bounded by the blobs that exist before anything is allocated per
//! stream, every stream's header (scheme, thread, domain) is checked
//! against its name, section sizes against the manifest's counts, and the
//! manifest's record count against the decoded streams — so even a chunked
//! stream that lost its tail at an exact chunk boundary is rejected as
//! corrupt rather than silently shortened.
//!
//! # Streaming (chunked) recording
//!
//! rr and iReplayer both stream records incrementally because of the
//! file-system bound above. [`StreamingTraceStore`] is the incremental
//! counterpart of [`TraceStore`]: [`begin_record`] opens one chunked
//! stream per thread per domain (see the [`crate::codec`] chunk frame),
//! the returned [`RecordSink`] appends encoded chunks as the session
//! records — so a trace can grow past RAM — and [`RecordSink::commit`]
//! publishes the streams, the sections and the manifest.
//!
//! [`begin_record`]: StreamingTraceStore::begin_record

use crate::codec;
use crate::error::TraceError;
use crate::plan::DomainPlan;
use crate::session::Scheme;
use crate::trace::{Checkpoint, CrossDomainEdge, StTrace, ThreadTrace, TraceBundle};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Bytes/files touched by one save or load, for the session's I/O stats.
///
/// A [`DirStore`] counts its manifest as a file (and, on a write, its
/// bytes); a [`MemStore`] never has — see [`Blobs::COUNTS_MANIFEST`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoReport {
    /// Total payload bytes moved.
    pub bytes: u64,
    /// Number of record files involved.
    pub files: u64,
    /// Number of stream chunks written or read (0 for one-shot layouts).
    pub chunks: u64,
    /// Peak number of chunks any single (thread, domain) stream retained
    /// at once. Only a bounded (flight-recorder) sink tracks this — it is
    /// the witness that retention never exceeded the configured window —
    /// and it stays 0 for unbounded stores.
    pub retained_peak: u64,
    /// Records evicted from the retained window over the recording's
    /// lifetime (0 for unbounded stores).
    pub evicted: u64,
}

impl IoReport {
    /// Count one blob of `bytes` bytes.
    fn add_blob(&mut self, bytes: usize) {
        self.bytes += bytes as u64;
        self.files += 1;
    }
}

/// Parameters of one streaming recording, threaded through
/// [`StreamingTraceStore::begin_record`] to every sink stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordOptions {
    /// Recording scheme (decides stream layout: per-thread vs shared ST).
    pub scheme: Scheme,
    /// Number of recording threads.
    pub nthreads: u32,
    /// Number of gate domains (1 = classic single-gate layout).
    pub domains: u32,
    /// Whether chunks will carry site/kind columns; every appended chunk
    /// must match.
    pub validated: bool,
    /// Run the per-chunk RLE compression stage
    /// ([`codec::FLAG_COMPRESSED`]) on every stream.
    pub compress: bool,
}

impl RecordOptions {
    /// Options for an uncompressed recording (the default pipeline).
    #[must_use]
    pub fn new(scheme: Scheme, nthreads: u32, domains: u32, validated: bool) -> Self {
        RecordOptions {
            scheme,
            nthreads,
            domains,
            validated,
            compress: false,
        }
    }

    /// Toggle the per-chunk compression stage.
    #[must_use]
    pub fn with_compression(mut self, compress: bool) -> Self {
        self.compress = compress;
        self
    }

    /// The options that stream `bundle` as it is.
    fn of_bundle(bundle: &TraceBundle, compress: bool) -> Self {
        RecordOptions::new(
            bundle.scheme,
            bundle.nthreads,
            bundle.domains,
            bundle.has_validation(),
        )
        .with_compression(compress)
    }

    fn check(&self) -> Result<(), TraceError> {
        if self.nthreads == 0 {
            return Err(TraceError::Corrupt("zero threads".into()));
        }
        if self.domains == 0 {
            return Err(TraceError::Corrupt("zero domains".into()));
        }
        Ok(())
    }

    /// A plan attached to this recording must partition its domain count.
    pub(crate) fn check_plan(&self, plan: &DomainPlan) -> Result<(), TraceError> {
        if plan.domains() != self.domains {
            return Err(TraceError::Corrupt(format!(
                "plan partitions {} domains but the recording has {}",
                plan.domains(),
                self.domains
            )));
        }
        Ok(())
    }

    /// Flat domain-major index of thread `tid`'s stream in domain `dom`.
    pub(crate) fn stream_index(&self, dom: u32, tid: u32) -> Result<usize, TraceError> {
        if dom >= self.domains || tid >= self.nthreads {
            return Err(TraceError::Corrupt(format!(
                "no stream for domain {dom} thread {tid}"
            )));
        }
        Ok((dom * self.nthreads + tid) as usize)
    }
}

/// The on-disk/in-header domain tag: multi-domain recordings stamp every
/// file with its domain; single-domain recordings stay in the legacy
/// domain-less format.
fn dom_tag(domains: u32, dom: u32) -> Option<u32> {
    (domains > 1).then_some(dom)
}

/// Abstract trace persistence.
pub trait TraceStore: Send + Sync {
    /// Persist a bundle, replacing any previous contents.
    fn save(&self, bundle: &TraceBundle) -> Result<IoReport, TraceError>;
    /// Load the stored bundle.
    fn load(&self) -> Result<(TraceBundle, IoReport), TraceError>;
}

/// Incremental trace persistence: streams per-thread chunks during a
/// record run instead of buffering the whole trace and saving once.
pub trait StreamingTraceStore: TraceStore {
    /// Start a streaming recording, replacing any stored trace. Returns a
    /// sink with one chunked stream per thread per domain (plus one shared
    /// ST stream per domain for [`Scheme::St`]). The recording becomes
    /// loadable only after [`RecordSink::commit`]; dropping the sink
    /// aborts it.
    fn begin_record(&self, opts: RecordOptions) -> Result<Box<dyn RecordSink>, TraceError>;

    /// Stream an already-assembled bundle through the chunked writer path
    /// in slices of `records_per_chunk` records. Produces the same loaded
    /// bundle as [`TraceStore::save`] while bounding the encoder's working
    /// set to one chunk.
    fn save_chunked(
        &self,
        bundle: &TraceBundle,
        records_per_chunk: usize,
    ) -> Result<IoReport, TraceError> {
        self.save_chunked_opt(bundle, records_per_chunk, false)
    }

    /// [`save_chunked`](StreamingTraceStore::save_chunked) with the
    /// per-chunk compression stage toggled by `compress`.
    fn save_chunked_opt(
        &self,
        bundle: &TraceBundle,
        records_per_chunk: usize,
        compress: bool,
    ) -> Result<IoReport, TraceError> {
        bundle.validate()?;
        let sink = self.begin_record(RecordOptions::of_bundle(bundle, compress))?;
        stream_bundle(sink, bundle, records_per_chunk, false)
    }
}

/// Recover `(dom, tid)` from a flat domain-major stream index.
fn split_stream_index(i: usize, nthreads: u32) -> (u32, u32) {
    let n = nthreads.max(1) as usize;
    ((i / n) as u32, (i % n) as u32)
}

/// Run `job` over every item: on one scoped thread per item when `fan_out`
/// and there is more than one — the per-thread parallel I/O the paper
/// credits to DC/DE recording (§IV-C1) — inline otherwise.
fn each_stream<T: Sync, R: Send>(
    fan_out: bool,
    items: &[T],
    job: impl Fn(usize, &T) -> Result<R, TraceError> + Sync,
) -> Result<Vec<R>, TraceError> {
    if !fan_out || items.len() < 2 {
        return items.iter().enumerate().map(|(i, t)| job(i, t)).collect();
    }
    std::thread::scope(|s| {
        let job = &job;
        let workers: Vec<_> = items
            .iter()
            .enumerate()
            .map(|(i, t)| s.spawn(move || job(i, t)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("stream I/O worker panicked"))
            .collect()
    })
}

/// Feed `bundle` through `sink` in `records_per_chunk`-sized chunks and
/// commit it.
fn stream_bundle(
    sink: Box<dyn RecordSink>,
    bundle: &TraceBundle,
    records_per_chunk: usize,
    fan_out: bool,
) -> Result<IoReport, TraceError> {
    // Every stream has its own lock, so parallel appenders do not contend.
    each_stream(fan_out, &bundle.threads, |i, trace| {
        let (dom, tid) = split_stream_index(i, bundle.nthreads);
        stream_thread_trace(&*sink, dom, tid, trace, records_per_chunk)
    })?;
    for (dom, st) in bundle.st.iter().enumerate() {
        stream_st_trace(&*sink, dom as u32, st, records_per_chunk)?;
    }
    if let Some(plan) = &bundle.plan {
        sink.put_plan(plan)?;
    }
    if !bundle.edges.is_empty() {
        sink.append_edges(&bundle.edges)?;
    }
    if let Some(cp) = &bundle.checkpoint {
        sink.put_checkpoint(cp)?;
    }
    sink.commit(bundle.total_records())
}

/// Append one thread trace to a sink in `records_per_chunk`-sized chunks.
fn stream_thread_trace(
    sink: &dyn RecordSink,
    dom: u32,
    tid: u32,
    trace: &ThreadTrace,
    records_per_chunk: usize,
) -> Result<(), TraceError> {
    let step = records_per_chunk.max(1);
    let mut at = 0;
    while at < trace.values.len() {
        let end = (at + step).min(trace.values.len());
        sink.append_thread_chunk(
            dom,
            tid,
            &trace.values[at..end],
            trace.sites.as_ref().map(|s| &s[at..end]),
            trace.kinds.as_ref().map(|k| &k[at..end]),
        )?;
        at = end;
    }
    Ok(())
}

/// Append one domain's shared ST trace to a sink in chunks.
fn stream_st_trace(
    sink: &dyn RecordSink,
    dom: u32,
    st: &StTrace,
    records_per_chunk: usize,
) -> Result<(), TraceError> {
    let step = records_per_chunk.max(1);
    let mut at = 0;
    while at < st.tids.len() {
        let end = (at + step).min(st.tids.len());
        sink.append_st_chunk(
            dom,
            &st.tids[at..end],
            st.sites.as_ref().map(|s| &s[at..end]),
            st.kinds.as_ref().map(|k| &k[at..end]),
        )?;
        at = end;
    }
    Ok(())
}

/// Handle for one in-progress streaming recording. All methods are
/// callable concurrently; each stream serializes its own appends.
pub trait RecordSink: Send + Sync {
    /// Append one chunk of records to thread `tid`'s stream in domain
    /// `dom` (0 for single-domain recordings). Returns the encoded bytes
    /// appended.
    fn append_thread_chunk(
        &self,
        dom: u32,
        tid: u32,
        values: &[u64],
        sites: Option<&[u64]>,
        kinds: Option<&[u8]>,
    ) -> Result<u64, TraceError>;

    /// Append one chunk to domain `dom`'s shared ST stream (ST recordings
    /// only).
    fn append_st_chunk(
        &self,
        dom: u32,
        tids: &[u32],
        sites: Option<&[u64]>,
        kinds: Option<&[u8]>,
    ) -> Result<u64, TraceError>;

    /// Attach the recording's [`DomainPlan`]; it is persisted at commit
    /// (`plan` manifest line + plan section). Calling it again replaces
    /// the previous plan.
    fn put_plan(&self, plan: &DomainPlan) -> Result<(), TraceError>;

    /// Append cross-domain happens-before edges; they accumulate and are
    /// persisted at commit (`edges` manifest line + edge section).
    fn append_edges(&self, edges: &[CrossDomainEdge]) -> Result<(), TraceError>;

    /// Attach the flight-recorder [`Checkpoint`] of a bounded (windowed)
    /// recording; it is persisted at commit (`checkpoint` manifest line +
    /// `RTCP` section). Calling it again replaces the previous checkpoint.
    fn put_checkpoint(&self, checkpoint: &Checkpoint) -> Result<(), TraceError>;

    /// Finalize the recording: flush every stream and atomically publish
    /// it (the manifest is written last). Until commit returns, the store
    /// has no loadable trace.
    fn commit(self: Box<Self>, total_records: u64) -> Result<IoReport, TraceError>;
}

pub(crate) fn check_columns(
    validated: bool,
    sites: Option<&[u64]>,
    kinds: Option<&[u8]>,
) -> Result<(), TraceError> {
    if sites.is_some() != validated || kinds.is_some() != validated {
        return Err(TraceError::Corrupt(
            "chunk columns do not match the recording's validation mode".into(),
        ));
    }
    Ok(())
}

// Blob backends: named bytes, nothing about traces.

/// A flat namespace of byte blobs — the storage a [`Store`] keeps a trace
/// in. Implementations know nothing about traces; the trait is public so a
/// test can substitute a backend that fails.
///
/// Whole-blob writes ([`put`](Blobs::put), [`commit`](Blobs::commit)) and
/// stream publication are atomic: a name holds its old contents, none, or
/// the complete new ones, never part of a write.
pub trait Blobs: Send + Sync + 'static {
    /// An open, not yet published stream.
    type Stream: Send;

    /// Whether the manifest counts in an [`IoReport`] (as one file, and on
    /// a write with its bytes). The two stores have always differed here —
    /// a directory's manifest is a file it made durable, a map's is
    /// bookkeeping — and reported sizes are compared across commits, so
    /// the difference stays where it is.
    const COUNTS_MANIFEST: bool;

    /// Whether independent streams are worth moving on parallel threads.
    const FAN_OUT: bool;

    /// Names of everything held, unpublished leftovers included.
    fn list(&self) -> Result<Vec<String>, TraceError>;

    /// The contents of `name`; a missing blob is an
    /// [`io::ErrorKind::NotFound`] I/O error.
    fn get(&self, name: &str) -> Result<Vec<u8>, TraceError>;

    /// Atomically replace `name` with `bytes`.
    fn put(&self, name: &str, bytes: &[u8]) -> Result<(), TraceError>;

    /// Open a stream that will become `name`, starting with `header`.
    /// Dropping the stream unpublished discards it.
    fn create(&self, name: &str, header: &[u8]) -> Result<Self::Stream, TraceError>;

    /// Append to an open stream.
    fn append(&self, stream: &mut Self::Stream, chunk: &[u8]) -> Result<(), TraceError>;

    /// Make the stream's contents durable and put them under its name.
    fn publish(&self, stream: Self::Stream) -> Result<(), TraceError>;

    /// Remove `name`; removing what is not there succeeds.
    fn remove(&self, name: &str) -> Result<(), TraceError>;

    /// [`put`](Blobs::put) the last blob of a write and make the whole
    /// write durable.
    fn commit(&self, name: &str, bytes: &[u8]) -> Result<(), TraceError>;
}

/// In-memory backend: a name → bytes map.
#[derive(Debug, Default)]
pub struct MemBlobs {
    blobs: Mutex<BTreeMap<String, Vec<u8>>>,
}

impl Blobs for MemBlobs {
    type Stream = (String, Vec<u8>);
    const COUNTS_MANIFEST: bool = false;
    const FAN_OUT: bool = false;

    fn list(&self) -> Result<Vec<String>, TraceError> {
        Ok(self.blobs.lock().keys().cloned().collect())
    }

    fn get(&self, name: &str) -> Result<Vec<u8>, TraceError> {
        let found = self.blobs.lock().get(name).cloned();
        found.ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, name.to_owned()).into())
    }

    fn put(&self, name: &str, bytes: &[u8]) -> Result<(), TraceError> {
        self.blobs.lock().insert(name.to_owned(), bytes.to_vec());
        Ok(())
    }

    fn create(&self, name: &str, header: &[u8]) -> Result<Self::Stream, TraceError> {
        Ok((name.to_owned(), header.to_vec()))
    }

    fn append(&self, stream: &mut Self::Stream, chunk: &[u8]) -> Result<(), TraceError> {
        stream.1.extend_from_slice(chunk);
        Ok(())
    }

    fn publish(&self, (name, bytes): Self::Stream) -> Result<(), TraceError> {
        self.blobs.lock().insert(name, bytes);
        Ok(())
    }

    fn remove(&self, name: &str) -> Result<(), TraceError> {
        self.blobs.lock().remove(name);
        Ok(())
    }

    fn commit(&self, name: &str, bytes: &[u8]) -> Result<(), TraceError> {
        self.put(name, bytes)
    }
}

/// Suffix of a [`DirBlobs`] file that is still being written.
const TMP_SUFFIX: &str = ".tmp";

/// Directory backend: one file per blob, created on first write.
///
/// A blob is written to a `*.tmp` sibling, fsynced, and `rename`d into
/// place, so its name only ever holds a complete, durable file.
#[derive(Debug)]
pub struct DirBlobs {
    dir: PathBuf,
}

/// One open [`DirBlobs`] stream: writes go to the `*.tmp` sibling of
/// `path` until it is published.
#[derive(Debug)]
pub struct DirStream {
    path: PathBuf,
    tmp: PathBuf,
    writer: io::BufWriter<fs::File>,
    published: bool,
}

impl Drop for DirStream {
    fn drop(&mut self) {
        // An aborted recording leaves only committed data on disk.
        if !self.published {
            let _ = fs::remove_file(&self.tmp);
        }
    }
}

impl DirBlobs {
    /// Backend rooted at `dir`.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DirBlobs { dir: dir.into() }
    }

    /// Create the temp sibling of `name` (and, on first use, the
    /// directory); returns the final path, the temp path and the file.
    fn create_tmp(&self, name: &str) -> Result<(PathBuf, PathBuf, fs::File), TraceError> {
        let path = self.dir.join(name);
        let tmp = self.dir.join(format!("{name}{TMP_SUFFIX}"));
        let file = match fs::File::create(&tmp) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                fs::create_dir_all(&self.dir)?;
                fs::File::create(&tmp)?
            }
            other => other?,
        };
        Ok((path, tmp, file))
    }
}

impl Blobs for DirBlobs {
    type Stream = DirStream;
    const COUNTS_MANIFEST: bool = true;
    const FAN_OUT: bool = true;

    fn list(&self) -> Result<Vec<String>, TraceError> {
        let entries = match fs::read_dir(&self.dir) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            other => other?,
        };
        let mut names = Vec::new();
        for entry in entries {
            if let Ok(name) = entry?.file_name().into_string() {
                names.push(name);
            }
        }
        Ok(names)
    }

    fn get(&self, name: &str) -> Result<Vec<u8>, TraceError> {
        let mut bytes = Vec::new();
        fs::File::open(self.dir.join(name))?.read_to_end(&mut bytes)?;
        Ok(bytes)
    }

    fn put(&self, name: &str, bytes: &[u8]) -> Result<(), TraceError> {
        let (path, tmp, mut file) = self.create_tmp(name)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, &path)?;
        Ok(())
    }

    fn create(&self, name: &str, header: &[u8]) -> Result<DirStream, TraceError> {
        let (path, tmp, file) = self.create_tmp(name)?;
        let mut stream = DirStream {
            path,
            tmp,
            writer: io::BufWriter::new(file),
            published: false,
        };
        stream.writer.write_all(header)?;
        Ok(stream)
    }

    fn append(&self, stream: &mut DirStream, chunk: &[u8]) -> Result<(), TraceError> {
        Ok(stream.writer.write_all(chunk)?)
    }

    fn publish(&self, mut stream: DirStream) -> Result<(), TraceError> {
        stream.writer.flush()?;
        stream.writer.get_ref().sync_all()?;
        fs::rename(&stream.tmp, &stream.path)?;
        stream.published = true;
        Ok(())
    }

    fn remove(&self, name: &str) -> Result<(), TraceError> {
        match fs::remove_file(self.dir.join(name)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e.into()),
            _ => Ok(()),
        }
    }

    fn commit(&self, name: &str, bytes: &[u8]) -> Result<(), TraceError> {
        self.put(name, bytes)?;
        // Fsync the directory so the completed renames survive a power
        // loss. Best-effort: some platforms cannot open a directory for
        // syncing.
        if let Ok(d) = fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }
}

// The trace layer: names, manifest, save, sink, load — once.

/// Name of the blob a store is loadable by; written last, removed first.
const MANIFEST: &str = "manifest.txt";

/// A record stream or section of a stored trace.
enum Blob {
    /// `thread_<tid>.rtrc` / `thread_<tid>.d<dom>.rtrc`.
    Thread { tid: u32, dom: Option<u32> },
    /// `st.rtrc` / `st.d<dom>.rtrc`.
    St { dom: Option<u32> },
    /// `plan.rtrc` — the domain-plan section of a planned recording.
    Plan,
    /// `edges.rtrc` — the cross-domain happens-before edges.
    Edges,
    /// `checkpoint.rtrc` — the flight-recorder checkpoint of a windowed dump.
    Checkpoint,
}

impl Blob {
    fn name(&self) -> String {
        match *self {
            Blob::Thread { tid, dom: None } => format!("thread_{tid}.rtrc"),
            Blob::Thread {
                tid,
                dom: Some(dom),
            } => format!("thread_{tid}.d{dom}.rtrc"),
            Blob::St { dom: None } => "st.rtrc".into(),
            Blob::St { dom: Some(dom) } => format!("st.d{dom}.rtrc"),
            Blob::Plan => "plan.rtrc".into(),
            Blob::Edges => "edges.rtrc".into(),
            Blob::Checkpoint => "checkpoint.rtrc".into(),
        }
    }

    /// Inverse of [`Blob::name`].
    fn parse(name: &str) -> Option<Blob> {
        let stem = name.strip_suffix(".rtrc")?;
        match stem {
            "plan" => return Some(Blob::Plan),
            "edges" => return Some(Blob::Edges),
            "checkpoint" => return Some(Blob::Checkpoint),
            _ => {}
        }
        let (stem, dom) = match stem.rsplit_once(".d") {
            Some((pre, d)) => match d.parse::<u32>() {
                Ok(d) => (pre, Some(d)),
                Err(_) => (stem, None),
            },
            None => (stem, None),
        };
        if stem == "st" {
            return Some(Blob::St { dom });
        }
        let tid = stem.strip_prefix("thread_")?.parse::<u32>().ok()?;
        Some(Blob::Thread { tid, dom })
    }
}

/// Whether a write of `layout` must remove the existing blob `name`: it is
/// an unpublished leftover, a section (always rewritten by the write that
/// owns it), or a record stream the new layout will not overwrite. Names
/// the trace layer does not own are left alone.
fn is_stale(name: &str, layout: &RecordOptions) -> bool {
    if name.ends_with(TMP_SUFFIX) {
        return true;
    }
    // Single-domain layouts use domain-less names; multi-domain layouts
    // tag every blob.
    let keeps = |dom: Option<u32>| match dom {
        None => layout.domains == 1,
        Some(d) => layout.domains > 1 && d < layout.domains,
    };
    match Blob::parse(name) {
        Some(Blob::St { dom }) => !(layout.scheme == Scheme::St && keeps(dom)),
        Some(Blob::Thread { tid, dom }) => !(tid < layout.nthreads && keeps(dom)),
        Some(Blob::Plan | Blob::Edges | Blob::Checkpoint) => true,
        None => false,
    }
}

/// Contents of the manifest blob.
struct Manifest {
    scheme: Scheme,
    nthreads: u32,
    domains: u32,
    records: Option<u64>,
    /// Explicit site count of the stamped plan (`None`: no plan section —
    /// the recording partitioned with the legacy modulo).
    plan_sites: Option<u64>,
    /// Cross-domain edge count (`None`: no edge section).
    edges: Option<u64>,
    /// Whether the bundle carries a flight-recorder checkpoint section.
    checkpoint: bool,
}

impl Manifest {
    fn render(&self) -> String {
        // `domains` is only written for multi-domain recordings — and
        // `plan`/`edges`/`checkpoint` only for recordings that carry them —
        // so that manifests without the new features stay byte-identical to
        // the earlier formats.
        let mut text = format!(
            "reomp-trace v1\nscheme {}\nthreads {}\n",
            self.scheme.name(),
            self.nthreads
        );
        if self.domains > 1 {
            text.push_str(&format!("domains {}\n", self.domains));
        }
        if let Some(n) = self.plan_sites {
            text.push_str(&format!("plan {n}\n"));
        }
        if let Some(n) = self.edges {
            text.push_str(&format!("edges {n}\n"));
        }
        if self.checkpoint {
            text.push_str("checkpoint 1\n");
        }
        if let Some(n) = self.records {
            text.push_str(&format!("records {n}\n"));
        }
        text
    }

    fn parse(bytes: Vec<u8>) -> Result<Manifest, TraceError> {
        fn number<T: std::str::FromStr>(what: &str, n: &str) -> Result<T, TraceError> {
            n.parse()
                .map_err(|_| TraceError::Corrupt(format!("bad {what} {n:?}")))
        }
        let text = String::from_utf8(bytes)
            .map_err(|_| TraceError::Corrupt("manifest is not UTF-8".into()))?;
        let mut lines = text.lines();
        match lines.next() {
            Some("reomp-trace v1") => {}
            Some(line) => return Err(TraceError::Corrupt(format!("manifest header: {line:?}"))),
            None => {}
        }
        let mut scheme = None;
        let mut nthreads = None;
        let mut domains = 1;
        let mut records = None;
        let mut plan_sites = None;
        let mut edges = None;
        let mut checkpoint = false;
        for line in lines {
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next()) {
                (Some("scheme"), Some(s)) => {
                    scheme = Some(
                        Scheme::parse(s)
                            .ok_or_else(|| TraceError::Corrupt(format!("bad scheme {s:?}")))?,
                    );
                }
                (Some("threads"), Some(n)) => nthreads = Some(number("thread count", n)?),
                (Some("domains"), Some(n)) => {
                    domains = number("domain count", n)?;
                    if domains == 0 {
                        return Err(TraceError::Corrupt(format!("bad domain count {n:?}")));
                    }
                }
                (Some("plan"), Some(n)) => plan_sites = Some(number("plan site count", n)?),
                (Some("edges"), Some(n)) => edges = Some(number("edge count", n)?),
                (Some("checkpoint"), Some(n)) => {
                    if n != "1" {
                        return Err(TraceError::Corrupt(format!("bad checkpoint flag {n:?}")));
                    }
                    checkpoint = true;
                }
                (Some("records"), Some(n)) => records = Some(number("record count", n)?),
                (Some("records"), None) | (None, _) => {}
                (Some(k), _) => {
                    return Err(TraceError::Corrupt(format!("unknown manifest key {k:?}")))
                }
            }
        }
        match (scheme, nthreads) {
            (Some(scheme), Some(nthreads)) => Ok(Manifest {
                scheme,
                nthreads,
                domains,
                records,
                plan_sites,
                edges,
                checkpoint,
            }),
            _ => Err(TraceError::Corrupt(
                "manifest missing scheme/threads".into(),
            )),
        }
    }
}

/// Trace persistence over a [`Blobs`] backend — see the module docs for
/// the layout and the commit protocol.
#[derive(Debug, Default)]
pub struct Store<B> {
    blobs: Arc<B>,
}

/// In-memory store (still goes through the binary codec, so it exercises
/// the same encode/decode path as [`DirStore`]).
pub type MemStore = Store<MemBlobs>;

/// One-record-file-per-thread directory store (the paper's layout).
/// Streams are written and read by concurrent worker threads when there
/// is more than one, mirroring the parallel-I/O property §IV-C1 credits to
/// DC/DE recording.
pub type DirStore = Store<DirBlobs>;

impl<B: Blobs> Store<B> {
    /// Store over `blobs`.
    #[must_use]
    pub fn with_blobs(blobs: B) -> Self {
        Store {
            blobs: Arc::new(blobs),
        }
    }

    /// Steps 1 and 2 of the commit protocol: once the manifest is gone,
    /// readers see [`TraceError::Empty`] instead of a half-replaced store.
    fn unpublish(&self, layout: &RecordOptions) -> Result<(), TraceError> {
        self.blobs.remove(MANIFEST)?;
        for name in self.blobs.list()? {
            if is_stale(&name, layout) {
                self.blobs.remove(&name)?;
            }
        }
        Ok(())
    }
}

impl MemStore {
    /// New empty store.
    #[must_use]
    pub fn new() -> Self {
        MemStore::default()
    }
}

impl DirStore {
    /// Store rooted at `dir` (created on first save).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Store::with_blobs(DirBlobs::new(dir))
    }

    /// Root directory of the store.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.blobs.dir
    }
}

/// Steps 3 (sections) and 4 of the commit protocol, after the record
/// streams counted in `report` are in place.
fn commit_trace<B: Blobs>(
    blobs: &B,
    layout: &RecordOptions,
    records: u64,
    plan: Option<&DomainPlan>,
    edges: &[CrossDomainEdge],
    checkpoint: Option<&Checkpoint>,
    mut report: IoReport,
) -> Result<IoReport, TraceError> {
    let mut section = |blob: Blob, bytes: &[u8]| {
        report.add_blob(bytes.len());
        blobs.put(&blob.name(), bytes)
    };
    if let Some(plan) = plan {
        section(Blob::Plan, &codec::encode_plan(plan))?;
    }
    if !edges.is_empty() {
        section(Blob::Edges, &codec::encode_edges(edges))?;
    }
    if let Some(cp) = checkpoint {
        section(Blob::Checkpoint, &codec::encode_checkpoint(cp))?;
    }
    let manifest = Manifest {
        scheme: layout.scheme,
        nthreads: layout.nthreads,
        domains: layout.domains,
        records: Some(records),
        plan_sites: plan.map(|p| p.assigned() as u64),
        edges: (!edges.is_empty()).then_some(edges.len() as u64),
        checkpoint: checkpoint.is_some(),
    }
    .render();
    // Manifest last: only now does the store become loadable.
    blobs.commit(MANIFEST, manifest.as_bytes())?;
    if B::COUNTS_MANIFEST {
        report.add_blob(manifest.len());
    }
    Ok(report)
}

impl<B: Blobs> TraceStore for Store<B> {
    fn save(&self, bundle: &TraceBundle) -> Result<IoReport, TraceError> {
        // An inconsistent bundle must fail here, not clobber other
        // threads' streams (the flat index is interpreted modulo nthreads).
        bundle.validate()?;
        let layout = RecordOptions::of_bundle(bundle, false);
        self.unpublish(&layout)?;
        let blobs = &*self.blobs;
        let mut report = IoReport::default();
        let written = each_stream(B::FAN_OUT, &bundle.threads, |i, trace| {
            let (dom, tid) = split_stream_index(i, bundle.nthreads);
            let dom = dom_tag(bundle.domains, dom);
            let bytes = codec::encode_thread_trace_opt(trace, bundle.scheme, tid, dom);
            blobs.put(&Blob::Thread { tid, dom }.name(), &bytes)?;
            Ok(bytes.len())
        })?;
        for n in written {
            report.add_blob(n);
        }
        for (dom, st) in bundle.st.iter().enumerate() {
            let dom = dom_tag(bundle.domains, dom as u32);
            let bytes = codec::encode_st_trace_opt(st, dom);
            blobs.put(&Blob::St { dom }.name(), &bytes)?;
            report.add_blob(bytes.len());
        }
        commit_trace(
            blobs,
            &layout,
            bundle.total_records(),
            bundle.plan.as_ref(),
            &bundle.edges,
            bundle.checkpoint.as_ref(),
            report,
        )
    }

    fn load(&self) -> Result<(TraceBundle, IoReport), TraceError> {
        let blobs = &*self.blobs;
        let manifest = match blobs.get(MANIFEST) {
            Err(TraceError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {
                return Err(TraceError::Empty)
            }
            other => Manifest::parse(other?)?,
        };
        let Manifest {
            scheme,
            nthreads,
            domains,
            ..
        } = manifest;
        // The manifest is outside input: bound the streams it declares by
        // the blobs that exist before allocating or spawning per stream.
        let st_streams = if scheme == Scheme::St { domains } else { 0 };
        let declared = u64::from(nthreads) * u64::from(domains) + u64::from(st_streams);
        let held = blobs.list()?.len() as u64;
        if declared > held {
            return Err(TraceError::Corrupt(format!(
                "manifest declares {declared} record streams but the store holds {held} blobs"
            )));
        }
        let mut report = IoReport {
            files: u64::from(B::COUNTS_MANIFEST),
            ..IoReport::default()
        };
        // No stream can hold more records than the manifest promises in
        // all; a run-length coded one that claims to is cut short there.
        let max_records = manifest.records.unwrap_or(u64::MAX);

        let ids: Vec<(u32, u32)> = (0..domains)
            .flat_map(|dom| (0..nthreads).map(move |tid| (dom, tid)))
            .collect();
        let loaded = each_stream(B::FAN_OUT, &ids, |_, &(dom, tid)| {
            let tag = dom_tag(domains, dom);
            let bytes = blobs.get(&Blob::Thread { tid, dom: tag }.name())?;
            let decoded = codec::decode_thread_records_within(&bytes, max_records)?;
            if decoded.scheme != scheme || decoded.tid != tid || decoded.domain != tag {
                return Err(TraceError::Corrupt(format!(
                    "thread file {tid} (domain {dom}): header says scheme {} tid {} domain {:?}",
                    decoded.scheme.name(),
                    decoded.tid,
                    decoded.domain
                )));
            }
            Ok((decoded.trace, bytes.len(), decoded.chunks))
        })?;
        let mut threads = Vec::with_capacity(loaded.len());
        for (trace, n, chunks) in loaded {
            report.add_blob(n);
            report.chunks += chunks;
            threads.push(trace);
        }

        let read = |blob: Blob, report: &mut IoReport| -> Result<Vec<u8>, TraceError> {
            let bytes = blobs.get(&blob.name())?;
            report.add_blob(bytes.len());
            Ok(bytes)
        };
        let mut st = Vec::new();
        for dom in 0..st_streams {
            let tag = dom_tag(domains, dom);
            let bytes = read(Blob::St { dom: tag }, &mut report)?;
            let decoded = codec::decode_st_records_within(&bytes, max_records)?;
            if decoded.domain != tag {
                return Err(TraceError::Corrupt(format!(
                    "st stream (domain {dom}): header says domain {:?}",
                    decoded.domain
                )));
            }
            report.chunks += decoded.chunks;
            st.push(decoded.trace);
        }

        // Sections, cross-checked against the manifest's counts the same
        // way record streams are.
        let plan = match manifest.plan_sites {
            Some(expected) => {
                let plan = codec::decode_plan(&read(Blob::Plan, &mut report)?)?;
                if plan.assigned() as u64 != expected {
                    return Err(TraceError::Corrupt(format!(
                        "manifest promises {expected} planned sites but the plan holds {}",
                        plan.assigned()
                    )));
                }
                Some(plan)
            }
            None => None,
        };
        let edges = match manifest.edges {
            Some(expected) => {
                let edges = codec::decode_edges(&read(Blob::Edges, &mut report)?)?;
                if edges.len() as u64 != expected {
                    return Err(TraceError::Corrupt(format!(
                        "manifest promises {expected} edges but the section holds {}",
                        edges.len()
                    )));
                }
                edges
            }
            None => Vec::new(),
        };
        let checkpoint = if manifest.checkpoint {
            Some(codec::decode_checkpoint(&read(
                Blob::Checkpoint,
                &mut report,
            )?)?)
        } else {
            None
        };

        let bundle = TraceBundle {
            scheme,
            nthreads,
            domains,
            threads,
            st,
            plan,
            edges,
            checkpoint,
        };
        bundle.validate()?;
        // Cross-check the manifest's record count: a chunked stream
        // truncated exactly on a chunk boundary decodes cleanly, and this
        // is what catches the missing tail.
        if let Some(expected) = manifest.records {
            let got = bundle.total_records();
            if got != expected {
                return Err(TraceError::Corrupt(format!(
                    "manifest promises {expected} records but the files hold {got}"
                )));
            }
        }
        Ok((bundle, report))
    }
}

impl<B: Blobs> StreamingTraceStore for Store<B> {
    fn begin_record(&self, opts: RecordOptions) -> Result<Box<dyn RecordSink>, TraceError> {
        opts.check()?;
        let RecordOptions {
            scheme,
            nthreads,
            domains,
            validated,
            compress,
        } = opts;
        self.unpublish(&opts)?;
        let open = |blob: Blob, header: &[u8]| -> Result<_, TraceError> {
            Ok(Mutex::new(OpenStream {
                stream: self.blobs.create(&blob.name(), header)?,
                bytes: header.len() as u64,
                chunks: 0,
            }))
        };
        let mut streams = Vec::with_capacity(domains as usize * nthreads as usize);
        for dom in 0..domains {
            let dom = dom_tag(domains, dom);
            for tid in 0..nthreads {
                let header = codec::encode_thread_stream_header_opt(
                    scheme, tid, dom, validated, validated, compress,
                );
                streams.push(open(Blob::Thread { tid, dom }, &header)?);
            }
        }
        if scheme == Scheme::St {
            for dom in 0..domains {
                let dom = dom_tag(domains, dom);
                let header =
                    codec::encode_st_stream_header_opt(dom, validated, validated, compress);
                streams.push(open(Blob::St { dom }, &header)?);
            }
        }
        Ok(Box::new(Sink {
            blobs: Arc::clone(&self.blobs),
            opts,
            streams,
            plan: Mutex::new(None),
            edges: Mutex::new(Vec::new()),
            checkpoint: Mutex::new(None),
        }))
    }

    fn save_chunked_opt(
        &self,
        bundle: &TraceBundle,
        records_per_chunk: usize,
        compress: bool,
    ) -> Result<IoReport, TraceError> {
        bundle.validate()?;
        let sink = self.begin_record(RecordOptions::of_bundle(bundle, compress))?;
        stream_bundle(sink, bundle, records_per_chunk, B::FAN_OUT)
    }
}

/// One open chunked stream of a [`Sink`], with what was appended so far.
struct OpenStream<S> {
    stream: S,
    bytes: u64,
    chunks: u64,
}

/// The streaming recording of a [`Store`].
struct Sink<B: Blobs> {
    blobs: Arc<B>,
    opts: RecordOptions,
    /// Thread streams, flat and domain-major, then — for ST — one shared
    /// stream per domain.
    streams: Vec<Mutex<OpenStream<B::Stream>>>,
    /// Attached domain plan, written at commit.
    plan: Mutex<Option<DomainPlan>>,
    /// Accumulated cross-domain edges, written at commit.
    edges: Mutex<Vec<CrossDomainEdge>>,
    /// Attached flight-recorder checkpoint, written at commit.
    checkpoint: Mutex<Option<Checkpoint>>,
}

impl<B: Blobs> Sink<B> {
    fn append(&self, index: usize, chunk: &[u8]) -> Result<u64, TraceError> {
        let mut open = self.streams[index].lock();
        self.blobs.append(&mut open.stream, chunk)?;
        open.bytes += chunk.len() as u64;
        open.chunks += 1;
        Ok(chunk.len() as u64)
    }
}

impl<B: Blobs> RecordSink for Sink<B> {
    fn append_thread_chunk(
        &self,
        dom: u32,
        tid: u32,
        values: &[u64],
        sites: Option<&[u64]>,
        kinds: Option<&[u8]>,
    ) -> Result<u64, TraceError> {
        check_columns(self.opts.validated, sites, kinds)?;
        let index = self.opts.stream_index(dom, tid)?;
        let chunk = codec::encode_thread_chunk_opt(values, sites, kinds, self.opts.compress);
        self.append(index, &chunk)
    }

    fn append_st_chunk(
        &self,
        dom: u32,
        tids: &[u32],
        sites: Option<&[u64]>,
        kinds: Option<&[u8]>,
    ) -> Result<u64, TraceError> {
        check_columns(self.opts.validated, sites, kinds)?;
        if self.opts.scheme != Scheme::St || dom >= self.opts.domains {
            return Err(TraceError::Corrupt(format!(
                "no st stream for domain {dom}"
            )));
        }
        let index = (self.opts.domains * self.opts.nthreads + dom) as usize;
        let chunk = codec::encode_st_chunk_opt(tids, sites, kinds, self.opts.compress);
        self.append(index, &chunk)
    }

    fn put_plan(&self, plan: &DomainPlan) -> Result<(), TraceError> {
        self.opts.check_plan(plan)?;
        *self.plan.lock() = Some(plan.clone());
        Ok(())
    }

    fn append_edges(&self, edges: &[CrossDomainEdge]) -> Result<(), TraceError> {
        self.edges.lock().extend_from_slice(edges);
        Ok(())
    }

    fn put_checkpoint(&self, checkpoint: &Checkpoint) -> Result<(), TraceError> {
        checkpoint.check(self.opts.domains)?;
        *self.checkpoint.lock() = Some(checkpoint.clone());
        Ok(())
    }

    fn commit(self: Box<Self>, total_records: u64) -> Result<IoReport, TraceError> {
        let sink = *self;
        let mut report = IoReport::default();
        // A failure drops the streams not yet published, which discards
        // them; the manifest is not written and the store stays Empty.
        for open in sink.streams {
            let open = open.into_inner();
            sink.blobs.publish(open.stream)?;
            report.bytes += open.bytes;
            report.chunks += open.chunks;
            report.files += 1;
        }
        commit_trace(
            &*sink.blobs,
            &sink.opts,
            total_records,
            sink.plan.into_inner().as_ref(),
            &sink.edges.into_inner(),
            sink.checkpoint.into_inner().as_ref(),
            report,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bundle(scheme: Scheme) -> TraceBundle {
        let threads = vec![
            ThreadTrace {
                values: vec![0, 2, 5],
                sites: Some(vec![10, 11, 10]),
                kinds: Some(vec![0, 1, 0]),
            },
            ThreadTrace {
                values: vec![1, 3, 4],
                sites: Some(vec![10, 10, 11]),
                kinds: Some(vec![0, 0, 1]),
            },
        ];
        let st = if scheme == Scheme::St {
            vec![StTrace {
                tids: vec![0, 1, 0, 1, 1, 0],
                sites: Some(vec![10; 6]),
                kinds: Some(vec![3; 6]),
            }]
        } else {
            vec![]
        };
        // ST bundles keep empty per-thread traces; like session-assembled
        // bundles, their validation columns are present-but-empty.
        let threads = if scheme == Scheme::St {
            let empty = ThreadTrace {
                values: vec![],
                sites: Some(vec![]),
                kinds: Some(vec![]),
            };
            vec![empty.clone(), empty]
        } else {
            threads
        };
        TraceBundle {
            plan: None,
            edges: vec![],
            checkpoint: None,
            scheme,
            nthreads: 2,
            domains: 1,
            threads,
            st,
        }
    }

    /// A 2-thread × 2-domain bundle for every scheme.
    fn sample_multi_domain(scheme: Scheme) -> TraceBundle {
        let mk = |values: Vec<u64>| ThreadTrace {
            sites: Some(vec![10; values.len()]),
            kinds: Some(vec![0; values.len()]),
            values,
        };
        if scheme == Scheme::St {
            let empty = ThreadTrace {
                values: vec![],
                sites: Some(vec![]),
                kinds: Some(vec![]),
            };
            TraceBundle {
                plan: None,
                edges: vec![],
                checkpoint: None,
                scheme,
                nthreads: 2,
                domains: 2,
                threads: vec![empty.clone(), empty.clone(), empty.clone(), empty],
                st: vec![
                    StTrace {
                        tids: vec![0, 1, 0],
                        sites: Some(vec![10; 3]),
                        kinds: Some(vec![3; 3]),
                    },
                    StTrace {
                        tids: vec![1, 1],
                        sites: Some(vec![11; 2]),
                        kinds: Some(vec![3; 2]),
                    },
                ],
            }
        } else {
            TraceBundle {
                plan: None,
                edges: vec![],
                checkpoint: None,
                scheme,
                nthreads: 2,
                domains: 2,
                threads: vec![mk(vec![0, 2]), mk(vec![1]), mk(vec![1, 2]), mk(vec![0])],
                st: vec![],
            }
        }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "reomp-store-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memstore_roundtrip_all_schemes() {
        for scheme in [Scheme::St, Scheme::Dc, Scheme::De] {
            let store = MemStore::new();
            let bundle = sample_bundle(scheme);
            let saved = store.save(&bundle).unwrap();
            assert!(saved.bytes > 0);
            let (back, loaded) = store.load().unwrap();
            assert_eq!(back, bundle, "{scheme:?}");
            assert_eq!(loaded.bytes, saved.bytes);
            assert_eq!(loaded.chunks, 0, "one-shot layout has no chunks");
        }
    }

    #[test]
    fn memstore_multi_domain_roundtrip() {
        for scheme in [Scheme::St, Scheme::Dc, Scheme::De] {
            let store = MemStore::new();
            let bundle = sample_multi_domain(scheme);
            bundle.validate().unwrap();
            store.save(&bundle).unwrap();
            let (back, _) = store.load().unwrap();
            assert_eq!(back, bundle, "{scheme:?}");
            // And the chunked path too.
            let report = store.save_chunked(&bundle, 2).unwrap();
            assert!(report.chunks > 0, "{scheme:?}");
            let (back, _) = store.load().unwrap();
            assert_eq!(back, bundle, "{scheme:?} chunked");
        }
    }

    #[test]
    fn memstore_empty_load_fails() {
        assert!(matches!(MemStore::new().load(), Err(TraceError::Empty)));
    }

    #[test]
    fn save_rejects_inconsistent_bundles() {
        // A bundle whose thread count lies about its stream vector must be
        // rejected up front: the flat stream index is interpreted modulo
        // nthreads, so writing it out would silently clobber another
        // thread's file instead of leaving an orphan.
        let mut bad = sample_bundle(Scheme::Dc);
        bad.threads.push(ThreadTrace {
            values: vec![6],
            sites: Some(vec![1]),
            kinds: Some(vec![0]),
        });
        assert!(MemStore::new().save(&bad).is_err());
        let dir = tempdir("badsave");
        assert!(DirStore::new(&dir).save(&bad).is_err());
        assert!(
            !dir.join("manifest.txt").exists(),
            "nothing may be published for a rejected bundle"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn memstore_streaming_roundtrip() {
        for scheme in [Scheme::St, Scheme::Dc, Scheme::De] {
            let store = MemStore::new();
            let bundle = sample_bundle(scheme);
            let report = store.save_chunked(&bundle, 2).unwrap();
            assert!(report.chunks > 0, "{scheme:?}");
            let (back, loaded) = store.load().unwrap();
            assert_eq!(back, bundle, "{scheme:?}");
            assert_eq!(loaded.chunks, report.chunks);
        }
    }

    #[test]
    fn dirstore_roundtrip_all_schemes() {
        for scheme in [Scheme::St, Scheme::Dc, Scheme::De] {
            let dir = tempdir(&format!("rt-{}", scheme.name()));
            let store = DirStore::new(&dir);
            let bundle = sample_bundle(scheme);
            store.save(&bundle).unwrap();
            let (back, _) = store.load().unwrap();
            assert_eq!(back, bundle);
            // Per-thread layout on disk, no temp leftovers.
            assert!(dir.join("thread_0.rtrc").exists());
            assert!(dir.join("thread_1.rtrc").exists());
            assert_eq!(dir.join("st.rtrc").exists(), scheme == Scheme::St);
            assert!(fs::read_dir(&dir).unwrap().all(|e| !e
                .unwrap()
                .file_name()
                .to_string_lossy()
                .ends_with(".tmp")));
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn dirstore_multi_domain_layout_and_roundtrip() {
        for scheme in [Scheme::St, Scheme::Dc, Scheme::De] {
            let dir = tempdir(&format!("md-{}", scheme.name()));
            let store = DirStore::new(&dir);
            let bundle = sample_multi_domain(scheme);
            store.save(&bundle).unwrap();
            // Domain-tagged files on disk, no legacy names.
            assert!(dir.join("thread_0.d0.rtrc").exists());
            assert!(dir.join("thread_1.d1.rtrc").exists());
            assert!(!dir.join("thread_0.rtrc").exists());
            assert_eq!(dir.join("st.d0.rtrc").exists(), scheme == Scheme::St);
            assert_eq!(dir.join("st.d1.rtrc").exists(), scheme == Scheme::St);
            let manifest = fs::read_to_string(dir.join("manifest.txt")).unwrap();
            assert!(manifest.contains("domains 2"), "{manifest}");
            let (back, _) = store.load().unwrap();
            assert_eq!(back, bundle, "{scheme:?}");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn dirstore_multi_domain_chunked_roundtrip() {
        for scheme in [Scheme::St, Scheme::Dc, Scheme::De] {
            let dir = tempdir(&format!("mdc-{}", scheme.name()));
            let store = DirStore::new(&dir);
            let bundle = sample_multi_domain(scheme);
            let report = store.save_chunked(&bundle, 1).unwrap();
            assert!(report.chunks > 0);
            let (back, _) = store.load().unwrap();
            assert_eq!(back, bundle, "{scheme:?}");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// A planned multi-domain bundle with cross-domain edges.
    fn sample_planned(scheme: Scheme) -> TraceBundle {
        let mut bundle = sample_multi_domain(scheme);
        bundle.plan = Some(DomainPlan::with_assignments(
            2,
            [(crate::site::SiteId(10), 0), (crate::site::SiteId(11), 1)],
        ));
        bundle.edges = vec![CrossDomainEdge {
            domain: 1,
            thread: if scheme == Scheme::St { 1 } else { 0 },
            seq: 0,
            waits: vec![(0, 2)],
        }];
        bundle.validate().unwrap();
        bundle
    }

    #[test]
    fn plan_and_edges_roundtrip_on_disk() {
        for scheme in [Scheme::St, Scheme::Dc, Scheme::De] {
            let dir = tempdir(&format!("plan-{}", scheme.name()));
            let store = DirStore::new(&dir);
            let bundle = sample_planned(scheme);
            store.save(&bundle).unwrap();
            assert!(dir.join("plan.rtrc").exists());
            assert!(dir.join("edges.rtrc").exists());
            let manifest = fs::read_to_string(dir.join("manifest.txt")).unwrap();
            assert!(manifest.contains("plan 2"), "{manifest}");
            assert!(manifest.contains("edges 1"), "{manifest}");
            let (back, _) = store.load().unwrap();
            assert_eq!(back, bundle, "{scheme:?}");
            // The chunked (streaming) path persists them too.
            let report = store.save_chunked(&bundle, 1).unwrap();
            assert!(report.chunks > 0);
            let (back, _) = store.load().unwrap();
            assert_eq!(back, bundle, "{scheme:?} chunked");
            // MemStore agrees.
            let mem = MemStore::new();
            mem.save(&bundle).unwrap();
            assert_eq!(mem.load().unwrap().0, bundle, "{scheme:?} mem");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn planless_multi_domain_layout_matches_pr3_format() {
        // A multi-domain bundle with no plan and no edges must produce
        // exactly the PR 3 directory: no plan/edges files, no new manifest
        // lines — and such directories load with `plan: None` (the legacy
        // modulo partition) and no edges.
        let dir = tempdir("pr3compat");
        let store = DirStore::new(&dir);
        let bundle = sample_multi_domain(Scheme::Dc);
        assert!(bundle.plan.is_none() && bundle.edges.is_empty());
        store.save(&bundle).unwrap();
        assert!(!dir.join("plan.rtrc").exists());
        assert!(!dir.join("edges.rtrc").exists());
        let manifest = fs::read_to_string(dir.join("manifest.txt")).unwrap();
        assert_eq!(
            manifest,
            "reomp-trace v1\nscheme dc\nthreads 2\ndomains 2\nrecords 6\n"
        );
        let (back, _) = store.load().unwrap();
        assert_eq!(back.plan, None);
        assert!(back.edges.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_plan_and_edges_scrubbed_on_reuse() {
        let dir = tempdir("planscrub");
        let store = DirStore::new(&dir);
        store.save(&sample_planned(Scheme::Dc)).unwrap();
        assert!(dir.join("plan.rtrc").exists());
        // Re-save a plan-less single-domain bundle into the same dir: the
        // stale plan/edges sections must not survive to pair with it.
        store.save(&sample_bundle(Scheme::Dc)).unwrap();
        assert!(!dir.join("plan.rtrc").exists());
        assert!(!dir.join("edges.rtrc").exists());
        let (back, _) = store.load().unwrap();
        assert_eq!(back.plan, None);
        assert!(back.edges.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_plan_count_cross_checked() {
        let dir = tempdir("planxcheck");
        let store = DirStore::new(&dir);
        store.save(&sample_planned(Scheme::Dc)).unwrap();
        // Corrupt the plan file (drop an entry) without touching the
        // manifest: the load must notice the count mismatch.
        let plan = DomainPlan::with_assignments(2, [(crate::site::SiteId(10), 0)]);
        fs::write(dir.join("plan.rtrc"), codec::encode_plan(&plan)).unwrap();
        assert!(matches!(store.load(), Err(TraceError::Corrupt(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn single_domain_save_is_the_codec_encoding_under_domainless_names() {
        // What D = 1 keeps of the layout that predates domains: file names
        // without a domain, no FLAG_DOMAINS headers, no `domains` manifest
        // line — and every file exactly what the codec encodes for its
        // thread (the codec's own golden bytes pin the format).
        let dir = tempdir("legacy");
        let store = DirStore::new(&dir);
        let bundle = sample_bundle(Scheme::Dc);
        store.save(&bundle).unwrap();
        let manifest = fs::read_to_string(dir.join("manifest.txt")).unwrap();
        assert_eq!(
            manifest,
            "reomp-trace v1\nscheme dc\nthreads 2\nrecords 6\n"
        );
        for tid in 0..2u32 {
            let on_disk = fs::read(dir.join(format!("thread_{tid}.rtrc"))).unwrap();
            let expect = codec::encode_thread_trace(&bundle.threads[tid as usize], Scheme::Dc, tid);
            assert_eq!(on_disk, expect.to_vec(), "thread {tid} bytes");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn legacy_directory_without_domains_line_loads_as_one_domain() {
        // The manifest-level layout that predates domains still loads:
        // domain-less file names + a manifest without the domains key.
        // (Record files as an old version encoded them are the business of
        // `tests/golden_corpus.rs`.)
        let dir = tempdir("olddir");
        fs::create_dir_all(&dir).unwrap();
        let bundle = sample_bundle(Scheme::De);
        for (tid, t) in bundle.threads.iter().enumerate() {
            let bytes = codec::encode_thread_trace(t, Scheme::De, tid as u32);
            fs::write(dir.join(format!("thread_{tid}.rtrc")), &bytes).unwrap();
        }
        fs::write(
            dir.join("manifest.txt"),
            "reomp-trace v1\nscheme de\nthreads 2\nrecords 6\n",
        )
        .unwrap();
        let (back, _) = DirStore::new(&dir).load().unwrap();
        assert_eq!(back.domains, 1);
        assert_eq!(back, bundle);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dirstore_missing_dir_is_empty() {
        let store = DirStore::new(tempdir("missing"));
        assert!(matches!(store.load(), Err(TraceError::Empty)));
    }

    #[test]
    fn dirstore_detects_header_mismatch() {
        let dir = tempdir("swap");
        let store = DirStore::new(&dir);
        store.save(&sample_bundle(Scheme::Dc)).unwrap();
        // Swap the two thread files: tids in headers no longer match names.
        let a = dir.join("thread_0.rtrc");
        let b = dir.join("thread_1.rtrc");
        let tmp = dir.join("tmp");
        fs::rename(&a, &tmp).unwrap();
        fs::rename(&b, &a).unwrap();
        fs::rename(&tmp, &b).unwrap();
        assert!(store.load().is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dirstore_detects_domain_header_mismatch() {
        let dir = tempdir("domswap");
        let store = DirStore::new(&dir);
        store.save(&sample_multi_domain(Scheme::Dc)).unwrap();
        // Swap thread 0's two domain files: headers no longer match names.
        let a = dir.join("thread_0.d0.rtrc");
        let b = dir.join("thread_0.d1.rtrc");
        let tmp = dir.join("tmp");
        fs::rename(&a, &tmp).unwrap();
        fs::rename(&b, &a).unwrap();
        fs::rename(&tmp, &b).unwrap();
        let err = store.load().unwrap_err();
        assert!(err.to_string().contains("domain"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dirstore_rejects_corrupt_manifest() {
        let dir = tempdir("manifest");
        let store = DirStore::new(&dir);
        store.save(&sample_bundle(Scheme::De)).unwrap();
        fs::write(dir.join("manifest.txt"), "something else\n").unwrap();
        assert!(store.load().is_err());
        fs::write(
            dir.join("manifest.txt"),
            "reomp-trace v1\nscheme xx\nthreads 2\n",
        )
        .unwrap();
        assert!(store.load().is_err());
        fs::write(
            dir.join("manifest.txt"),
            "reomp-trace v1\nscheme de\nthreads 2\ndomains 0\n",
        )
        .unwrap();
        assert!(store.load().is_err(), "zero domains is corrupt");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn forged_stream_count_is_corrupt_before_anything_is_spawned() {
        // The manifest is outside input. This one used to make `load`
        // collect 300 000 stream ids and spawn a reader thread for each;
        // the process died with SIGABRT instead of returning an error.
        let dir = tempdir("forged");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("manifest.txt"),
            "reomp-trace v1\nscheme dc\nthreads 300000\nrecords 0\n",
        )
        .unwrap();
        let err = DirStore::new(&dir).load().unwrap_err();
        assert!(
            matches!(&err, TraceError::Corrupt(msg) if msg.contains("300000")),
            "expected a stream-count error, got {err}"
        );
        // The product of two declared counts must not overflow either.
        fs::write(
            dir.join("manifest.txt"),
            "reomp-trace v1\nscheme st\nthreads 4294967295\ndomains 4294967295\n",
        )
        .unwrap();
        assert!(matches!(
            DirStore::new(&dir).load(),
            Err(TraceError::Corrupt(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_overwrites_previous_contents() {
        let dir = tempdir("overwrite");
        let store = DirStore::new(&dir);
        store.save(&sample_bundle(Scheme::Dc)).unwrap();
        let second = sample_bundle(Scheme::De);
        store.save(&second).unwrap();
        let (back, _) = store.load().unwrap();
        assert_eq!(back.scheme, Scheme::De);
        assert_eq!(back, second);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_scrubs_stale_thread_and_st_files() {
        let dir = tempdir("scrub");
        let store = DirStore::new(&dir);

        // First run: 4 threads.
        let wide = TraceBundle {
            plan: None,
            edges: vec![],
            checkpoint: None,
            scheme: Scheme::Dc,
            nthreads: 4,
            domains: 1,
            threads: (0..4u64)
                .map(|t| ThreadTrace {
                    values: vec![t],
                    sites: None,
                    kinds: None,
                })
                .collect(),
            st: vec![],
        };
        store.save(&wide).unwrap();
        assert!(dir.join("thread_3.rtrc").exists());

        // Second run reuses the directory with 2 threads and an ST stream.
        store.save(&sample_bundle(Scheme::St)).unwrap();
        assert!(!dir.join("thread_2.rtrc").exists(), "stale file removed");
        assert!(!dir.join("thread_3.rtrc").exists(), "stale file removed");
        assert!(dir.join("st.rtrc").exists());

        // Third run has no ST stream: st.rtrc must go away.
        store.save(&sample_bundle(Scheme::De)).unwrap();
        assert!(!dir.join("st.rtrc").exists(), "stale st stream removed");
        let (back, _) = store.load().unwrap();
        assert_eq!(back, sample_bundle(Scheme::De));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_scrubs_stale_domain_files_across_layout_changes() {
        let dir = tempdir("domscrub");
        let store = DirStore::new(&dir);

        // Multi-domain run first.
        store.save(&sample_multi_domain(Scheme::Dc)).unwrap();
        assert!(dir.join("thread_0.d1.rtrc").exists());

        // Single-domain run reusing the directory: every domain-tagged
        // file must be scrubbed, otherwise a later multi-domain load could
        // mix runs.
        store.save(&sample_bundle(Scheme::Dc)).unwrap();
        assert!(!dir.join("thread_0.d0.rtrc").exists(), "stale domain file");
        assert!(!dir.join("thread_0.d1.rtrc").exists(), "stale domain file");
        assert!(dir.join("thread_0.rtrc").exists());
        store.load().unwrap();

        // And back to multi-domain: legacy names must be scrubbed.
        store.save(&sample_multi_domain(Scheme::St)).unwrap();
        assert!(!dir.join("thread_0.rtrc").exists(), "stale legacy file");
        assert!(dir.join("st.d1.rtrc").exists());
        store.load().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_scrubs_leftover_tmp_files() {
        let dir = tempdir("tmpjunk");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("thread_0.rtrc.tmp"), b"junk").unwrap();
        fs::write(dir.join("manifest.txt.tmp"), b"junk").unwrap();
        let store = DirStore::new(&dir);
        store.save(&sample_bundle(Scheme::Dc)).unwrap();
        assert!(!dir.join("thread_0.rtrc.tmp").exists());
        assert!(!dir.join("manifest.txt.tmp").exists());
        store.load().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn directory_without_manifest_reads_as_empty() {
        // The crash window of a save: record files present, manifest not
        // yet published. The store must report Empty, never a bundle.
        let dir = tempdir("nomanifest");
        let store = DirStore::new(&dir);
        store.save(&sample_bundle(Scheme::Dc)).unwrap();
        fs::remove_file(dir.join("manifest.txt")).unwrap();
        assert!(matches!(store.load(), Err(TraceError::Empty)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uncommitted_streaming_recording_is_not_loadable() {
        let dir = tempdir("abort");
        let store = DirStore::new(&dir);
        // A committed first recording, then an aborted second one.
        store.save_chunked(&sample_bundle(Scheme::Dc), 2).unwrap();
        {
            let sink = store
                .begin_record(RecordOptions::new(Scheme::Dc, 2, 1, true))
                .unwrap();
            sink.append_thread_chunk(0, 0, &[7], Some(&[1]), Some(&[0]))
                .unwrap();
            // Dropped without commit: simulated kill mid-recording.
        }
        assert!(
            matches!(store.load(), Err(TraceError::Empty)),
            "aborted recording must not resurrect the previous manifest"
        );
        // Temp files were swept.
        assert!(fs::read_dir(&dir).unwrap().all(|e| !e
            .unwrap()
            .file_name()
            .to_string_lossy()
            .ends_with(".tmp")));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn aborted_memstore_recording_reads_empty() {
        // begin_record must match DirStore semantics: the previous trace is
        // replaced immediately, so an abort cannot resurrect it.
        let store = MemStore::new();
        store.save(&sample_bundle(Scheme::Dc)).unwrap();
        {
            let sink = store
                .begin_record(RecordOptions::new(Scheme::Dc, 2, 1, true))
                .unwrap();
            sink.append_thread_chunk(0, 0, &[7], Some(&[1]), Some(&[0]))
                .unwrap();
            // Dropped without commit.
        }
        assert!(matches!(store.load(), Err(TraceError::Empty)));
    }

    #[test]
    fn chunk_boundary_truncation_is_detected_via_manifest() {
        // A chunked file cut exactly on a chunk boundary decodes cleanly at
        // the codec level; the manifest's record count must catch it.
        let dir = tempdir("chunkcut");
        let store = DirStore::new(&dir);
        let bundle = sample_bundle(Scheme::Dc);
        store.save_chunked(&bundle, 1).unwrap();
        store.load().unwrap();

        // Rewrite thread_0.rtrc with its last chunk dropped.
        let forged = {
            let t = &bundle.threads[0];
            let mut bytes =
                codec::encode_thread_stream_header_opt(Scheme::Dc, 0, None, true, true, false)
                    .to_vec();
            for i in 0..t.values.len() - 1 {
                bytes.extend_from_slice(&codec::encode_thread_chunk_opt(
                    &t.values[i..=i],
                    t.sites.as_ref().map(|s| &s[i..=i]),
                    t.kinds.as_ref().map(|k| &k[i..=i]),
                    false,
                ));
            }
            bytes
        };
        fs::write(dir.join("thread_0.rtrc"), &forged).unwrap();
        let err = store.load().unwrap_err();
        assert!(
            matches!(&err, TraceError::Corrupt(msg) if msg.contains("records")),
            "expected a record-count mismatch, got {err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sink_rejects_mismatched_columns_and_bad_streams() {
        let store = MemStore::new();
        let sink = store
            .begin_record(RecordOptions::new(Scheme::Dc, 1, 1, true))
            .unwrap();
        assert!(sink.append_thread_chunk(0, 0, &[1], None, None).is_err());
        let sink = store
            .begin_record(RecordOptions::new(Scheme::Dc, 1, 2, false))
            .unwrap();
        assert!(sink
            .append_thread_chunk(0, 0, &[1], Some(&[1]), Some(&[0]))
            .is_err());
        // Out-of-range domain/thread is an error, not a panic.
        assert!(sink.append_thread_chunk(2, 0, &[1], None, None).is_err());
        assert!(sink.append_thread_chunk(0, 1, &[1], None, None).is_err());
        assert!(sink.append_st_chunk(0, &[0], None, None).is_err());
    }

    #[test]
    fn truncated_record_file_is_corrupt_not_panic() {
        let dir = tempdir("truncate");
        let store = DirStore::new(&dir);
        store.save(&sample_bundle(Scheme::Dc)).unwrap();
        let path = dir.join("thread_0.rtrc");
        let full = fs::read(&path).unwrap();
        for cut in [6, 7, 10, full.len() - 1] {
            fs::write(&path, &full[..cut]).unwrap();
            assert!(store.load().is_err(), "cut at {cut} must fail cleanly");
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
