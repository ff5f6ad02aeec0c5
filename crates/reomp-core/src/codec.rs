//! Binary record-file format.
//!
//! Record files must be cheap to write on the record hot path and compact
//! enough that trace I/O does not dominate (§II-B: the scalability of any
//! record-and-replay tool is ultimately bounded by its file-system usage).
//! The paper records a thread id or a clock per access; so does this
//! format, and what validation adds (which site, which kind of access)
//! rides along as a dictionary index instead of a hash per record.
//!
//! ```text
//! file:    header | payload                 (one-shot)
//!          header | chunk*                  (flags bit 2, FLAG_CHUNKED)
//! header:  magic "RTRC" | version u8 (= 2) | scheme u8 | flags u8 | tid u32le |
//!          [domain u32le]                   (flags bit 3, FLAG_DOMAINS)
//! chunk:   magic "RTCK" | nbytes varint | payload
//! payload: count varint | values | [labels: count × (index varint [literal])]
//! ```
//!
//! * The values of a per-thread stream are clocks (DC) or epochs (DE) as
//!   **zigzag-delta varints**: clock sequences increase strictly and epoch
//!   sequences never decrease under the contiguous policy, so a delta
//!   typically fits one byte. The shared ST stream uses magic `RTST` and
//!   plain tid varints.
//! * Sites and kinds are one **label column**, present when the flags
//!   announce sites (bit 0) and/or kinds (bit 1). Each distinct `(site u64,
//!   kind u8)` pair of a payload is interned on first sight and a record
//!   carries only its varint index — one byte for the first 128 labels. A
//!   new label is announced in-line by the next unused index followed by
//!   its literal (the site as 8 little-endian bytes if the stream has
//!   sites, then the kind byte if it has kinds); there is no table section,
//!   so encoding is one pass.
//! * A streaming recorder appends one self-delimiting chunk per flush, so a
//!   trace never has to exist in memory as a whole. `nbytes` lets a reader
//!   bound-check (and skip) a chunk without decoding it; the delta base
//!   restarts at zero and the label table starts empty in every chunk, so
//!   chunks decode independently (the flight recorder drops old ones) and
//!   concatenate back into the [`ThreadTrace`]/[`StTrace`] a one-shot file
//!   of the same records decodes to.
//! * With [`FLAG_COMPRESSED`] the **value** column of every chunk (tids
//!   become zigzag deltas too) is cut into groups, each a head varint
//!   `len << 1 | repeat` followed by one delta that repeats `len` times or
//!   by `len` deltas that do not. A solo thread's stride-1 clocks collapse
//!   to a few bytes per chunk; a contended stream, whose strides wander,
//!   stays within two bytes per chunk of its plain encoding (only runs that
//!   pay for their head are coded as runs). Labels are never run-length
//!   coded.
//! * A multi-domain recording ([`crate::session::SessionConfig::domains`])
//!   stamps every file with its domain id; single-domain files never set
//!   the flag and decode with `domain: None`.
//!
//! **Version 1 is read-only**: files stamped `version = 1` still decode,
//! nothing writes them. Their payload is `count | values | [sites: count ×
//! u64le] [kinds: count × u8]`, and their compressed chunks code all three
//! columns as `(run varint, element)` pairs (values and sites as zigzag
//! deltas, kinds as bytes). The plan, edge and checkpoint sections did not
//! change and stay at version 1.
//!
//! All decode paths are total: counts and chunk lengths are bounded against
//! the remaining buffer *before* any allocation (a corrupt varint cannot
//! trigger an OOM-sized `Vec::with_capacity`), and truncated headers,
//! columns or label literals yield [`TraceError::Corrupt`], never a panic.
//! Only a run-length coded payload without a label column can hold more
//! records than bytes; its runs and its exact length are validated before
//! anything is reserved, and a caller that knows how many records to
//! expect (the store, from the manifest) caps the decode at that.

use crate::error::TraceError;
use crate::plan::DomainPlan;
use crate::session::Scheme;
use crate::site::{AccessKind, SiteId};
use crate::trace::{Checkpoint, CrossDomainEdge, DumpTrigger, StTrace, ThreadTrace};
use bytes::{Buf, BufMut, Bytes, BytesMut};

const MAGIC_THREAD: &[u8; 4] = b"RTRC";
const MAGIC_ST: &[u8; 4] = b"RTST";
const MAGIC_CHUNK: &[u8; 4] = b"RTCK";
const MAGIC_PLAN: &[u8; 4] = b"RTPL";
const MAGIC_EDGES: &[u8; 4] = b"RTHB";
const MAGIC_CHECKPOINT: &[u8; 4] = b"RTCP";
/// Version stamped on record streams (label-column payloads).
const VERSION: u8 = 2;
/// Version of the sections, and of the record streams still read.
const VERSION_1: u8 = 1;
const FLAG_SITES: u8 = 1;
const FLAG_KINDS: u8 = 2;
/// Header flag marking a chunked (streaming) record file.
pub const FLAG_CHUNKED: u8 = 4;
/// Header flag marking a record file that belongs to a multi-domain
/// recording; a 4-byte little-endian domain id follows the tid.
pub const FLAG_DOMAINS: u8 = 8;
/// Header flag marking a domain-plan section (set in the `RTPL` file so a
/// plan can never be confused with a record stream even if renamed).
pub const FLAG_PLAN: u8 = 16;
/// Header flag marking a stream whose chunks run-length code their value
/// column ([`encode_thread_chunk_opt`]); only valid with [`FLAG_CHUNKED`].
pub const FLAG_COMPRESSED: u8 = 32;

/// Records a run-length coded payload without a label column may claim per
/// byte, where the usual `count <= nbytes` bound does not apply: more than
/// any real recording reaches (a chunk holds at most one flush of records),
/// little enough to keep a corrupt count from an OOM-sized decode.
const MAX_RLE_EXPANSION: usize = 4096;

/// Shortest run of equal deltas coded as a run: head and delta then cost
/// no more than the deltas would, even if they split a group of literals.
const MIN_RUN: usize = 4;

/// Append `v` as an LEB128 unsigned varint.
pub fn put_uvarint(buf: &mut BytesMut, v: u64) {
    let mut bytes = [0; 10];
    let len = stage_uvarint(buf, &mut bytes, 0, v);
    buf.put_slice(&bytes[..len]);
}

/// Read one LEB128 unsigned varint.
pub fn get_uvarint<B: Buf>(buf: &mut B) -> Result<u64, TraceError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return Err(TraceError::Corrupt("varint truncated".into()));
        }
        let byte = buf.get_u8();
        if shift == 63 && byte > 1 {
            return Err(TraceError::Corrupt("varint overflows u64".into()));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(TraceError::Corrupt("varint too long".into()));
        }
    }
}

/// Read a count of things that cost at least `min_bytes` each, bounded by
/// the bytes that remain — before anything is allocated for them.
fn get_count(buf: &mut &[u8], min_bytes: usize, what: &str) -> Result<usize, TraceError> {
    let count = get_uvarint(buf)?;
    let fits = |n: &usize| {
        n.checked_mul(min_bytes)
            .is_some_and(|need| need <= buf.len())
    };
    usize::try_from(count).ok().filter(fits).ok_or_else(|| {
        let left = buf.len();
        TraceError::Corrupt(format!(
            "{what} count {count} exceeds the {left} remaining bytes"
        ))
    })
}

/// Zigzag-encode a signed delta.
#[inline]
#[must_use]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
#[must_use]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// The element of a value column: clocks or epochs (`u64`, zigzag deltas)
/// or ST thread ids (`u32`, deltas only when run-length coded).
trait Value: Copy + Into<u64> + TryFrom<u64> {
    /// Whether the plain column is delta coded.
    const PLAIN_DELTAS: bool;

    fn from_raw(raw: u64) -> Result<Self, TraceError> {
        Self::try_from(raw).map_err(|_| TraceError::Corrupt(format!("tid {raw} out of range")))
    }
}

impl Value for u64 {
    const PLAIN_DELTAS: bool = true;
}

impl Value for u32 {
    const PLAIN_DELTAS: bool = false;
}

/// How the elements of a column are laid out.
#[derive(Clone, Copy, PartialEq)]
enum Column {
    /// One varint per element.
    Plain,
    /// Groups of a head varint `len << 1 | repeat`, then one varint that
    /// repeats `len` times or `len` varints that do not.
    Groups,
    /// Version 1: `(run varint, element varint)` pairs.
    Runs,
    /// Version 1: `(run varint, element byte)` pairs.
    ByteRuns,
}

/// Bytes of a column staged on the stack between appends to the buffer.
const STAGE: usize = 512;

/// Append `v` as a varint to `stage[..len]`, where a column is assembled a
/// block at a time (a push per byte would serialize every record on the
/// buffer's length), first moving a full stage on to `buf`. Returns the
/// new `len`; the caller appends the last `stage[..len]` itself.
#[inline(always)]
fn stage_uvarint(buf: &mut BytesMut, stage: &mut [u8], mut len: usize, mut v: u64) -> usize {
    if len > stage.len() - 10 {
        buf.put_slice(&stage[..len]);
        len = 0;
    }
    while v >= 0x80 {
        stage[len] = v as u8 | 0x80;
        len += 1;
        v >>= 7;
    }
    stage[len] = v as u8;
    len + 1
}

/// Write a value column (the count is **not** written here): plain, or
/// with `compress` as [`Column::Groups`] of zigzag deltas against a base
/// of 0 — one pass over `values`, nothing allocated, so a clock stream
/// with a constant stride collapses to a handful of bytes.
fn put_values<T: Value>(buf: &mut BytesMut, values: &[T], compress: bool) {
    let (mut stage, mut len) = ([0; STAGE], 0);
    let mut put = |v: u64| len = stage_uvarint(buf, &mut stage, len, v);
    let delta = |i: usize| {
        let prev = if i == 0 { 0 } else { values[i - 1].into() };
        zigzag(values[i].into().wrapping_sub(prev) as i64)
    };
    if !compress && !T::PLAIN_DELTAS {
        values.iter().for_each(|&v| put(v.into()));
    } else if !compress {
        (0..values.len()).for_each(|i| put(delta(i)));
    } else {
        // `values[from..to]` as one group: of `repeat`, or of literals.
        let mut group = |from: usize, to: usize, repeat: Option<u64>| {
            if from < to {
                put(((to - from) as u64) << 1 | u64::from(repeat.is_some()));
                match repeat {
                    Some(delta) => put(delta),
                    None => (from..to).for_each(|i| put(delta(i))),
                }
            }
        };
        // `values[start..i]` is the run of `run_delta` being measured, after
        // the literals `values[unwritten..start]` that wait for their end.
        // Whether a delta extends its run is data, not a branch: on strides
        // that wander the only branch taken is the rare run worth coding.
        let (mut unwritten, mut start, mut run_delta) = (0, 0, 0);
        for i in 0..=values.len() {
            // One step past the end, a delta unlike the last closes its run.
            let d = values.get(i).map_or(!run_delta, |_| delta(i));
            let same = d == run_delta;
            if !same & (i - start >= MIN_RUN) {
                group(unwritten, start, None);
                group(start, i, Some(run_delta));
                unwritten = i;
            }
            start = if same { start } else { i };
            run_delta = d;
        }
        group(unwritten, values.len(), None);
    }
    buf.put_slice(&stage[..len]);
}

/// Walk a column of `count` elements, handing each `(run, element)` to
/// `emit`. Runs are non-zero and sum to exactly `count`, which the caller
/// bounds before `emit` may reserve for it.
fn walk_column(
    buf: &mut &[u8],
    count: usize,
    column: Column,
    mut emit: impl FnMut(usize, u64) -> Result<(), TraceError>,
) -> Result<(), TraceError> {
    let mut left = if column == Column::Plain { 0 } else { count };
    for _ in left..count {
        emit(1, get_uvarint(buf)?)?;
    }
    while left > 0 {
        let head = get_uvarint(buf)?;
        let (len, repeat) = match column {
            Column::Groups => (head >> 1, head & 1 == 1),
            _ => (head, true),
        };
        let fits = |n: &usize| *n != 0 && *n <= left;
        let len = usize::try_from(len).ok().filter(fits).ok_or_else(|| {
            TraceError::Corrupt(format!("bad run of {len} with {left} elements to go"))
        })?;
        if !repeat {
            for _ in 0..len {
                emit(1, get_uvarint(buf)?)?;
            }
        } else if column != Column::ByteRuns {
            emit(len, get_uvarint(buf)?)?;
        } else if buf.has_remaining() {
            emit(len, u64::from(buf.get_u8()))?;
        } else {
            return Err(TraceError::Corrupt("run-length column truncated".into()));
        }
        left -= len;
    }
    Ok(())
}

/// Append the `count` values of a column to `out`; every column but a
/// plain one of tids holds zigzag deltas against a base of 0.
fn get_values<T: Value>(
    buf: &mut &[u8],
    count: usize,
    column: Column,
    out: &mut Vec<T>,
) -> Result<(), TraceError> {
    let deltas = T::PLAIN_DELTAS || column != Column::Plain;
    let mut prev = 0u64;
    walk_column(buf, count, column, |run, element| {
        for _ in 0..run {
            prev = if deltas {
                prev.wrapping_add(unzigzag(element) as u64)
            } else {
                element
            };
            out.push(T::from_raw(prev)?);
        }
        Ok(())
    })
}

/// The `(site, kind)` labels of one payload, numbered in order of first
/// appearance, in an open-addressed table: interning a record is a
/// multiply, a shift and (nearly always) one probe, however many labels
/// there are.
struct LabelTable {
    /// `(site, kind, index + 1)`, or index 0 for a free slot; the length is
    /// a power of two, more than four times `len`.
    slots: Vec<(u64, u8, u32)>,
    len: u32,
}

impl LabelTable {
    /// The slot holding `(site, kind)`, or the free one where it belongs.
    #[inline(always)]
    fn find(&self, site: u64, kind: u8) -> usize {
        let mask = self.slots.len() - 1;
        let hash = (site ^ u64::from(kind).rotate_right(8)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut at = (hash >> (63 - mask.trailing_ones())) as usize >> 1;
        while self.slots[at].2 != 0 && (self.slots[at].0, self.slots[at].1) != (site, kind) {
            at = (at + 1) & mask;
        }
        at
    }

    /// Number a label not seen before, which belongs in the free slot `at`.
    #[cold]
    fn insert(&mut self, at: usize, site: u64, kind: u8) -> u32 {
        self.len += 1;
        self.slots[at] = (site, kind, self.len);
        if self.len as usize * 4 >= self.slots.len() {
            let grown = vec![(0, 0, 0); self.slots.len() * 2];
            for slot in std::mem::replace(&mut self.slots, grown) {
                if slot.2 != 0 {
                    let at = self.find(slot.0, slot.1);
                    self.slots[at] = slot;
                }
            }
        }
        self.len - 1
    }
}

/// The payload of a record stream — the one writer behind the one-shot
/// file and the chunk, per-thread (`u64` values) and ST (`u32` tids).
/// `compress` run-length codes the value column, never the labels.
fn put_payload<T: Value>(
    buf: &mut BytesMut,
    values: &[T],
    sites: Option<&[u64]>,
    kinds: Option<&[u8]>,
    compress: bool,
) {
    let count = values.len();
    put_uvarint(buf, count as u64);
    put_values(buf, values, compress);
    if sites.is_none() && kinds.is_none() {
        return;
    }
    let (sites, kinds) = (sites.map(|s| &s[..count]), kinds.map(|k| &k[..count]));
    let mut table = LabelTable {
        slots: vec![(0, 0, 0); 64],
        len: 0,
    };
    let (mut stage, mut len) = ([0; STAGE], 0);
    for i in 0..count {
        let (site, kind) = (sites.map_or(0, |s| s[i]), kinds.map_or(0, |k| k[i]));
        let at = table.find(site, kind);
        let seen = table.slots[at].2;
        if seen != 0 {
            len = stage_uvarint(buf, &mut stage, len, u64::from(seen - 1));
            continue;
        }
        let index = u64::from(table.insert(at, site, kind));
        len = stage_uvarint(buf, &mut stage, len, index);
        buf.put_slice(&stage[..len]);
        len = 0;
        if sites.is_some() {
            buf.put_u64_le(site);
        }
        if kinds.is_some() {
            buf.put_u8(kind);
        }
    }
    buf.put_slice(&stage[..len]);
}

/// Start a record file: magic, version, scheme, flags (`flags` plus the
/// `(sites, kinds)` columns present, and [`FLAG_DOMAINS`] when `domain`
/// is), tid, and the optional domain id; `room` more bytes are reserved.
fn stream_header(
    magic: &[u8; 4],
    (scheme, tid, domain): (Scheme, u32, Option<u32>),
    (sites, kinds): (bool, bool),
    flags: u8,
    room: usize,
) -> BytesMut {
    let mut buf = BytesMut::with_capacity(15 + room);
    buf.put_slice(magic);
    buf.put_u8(VERSION);
    buf.put_u8(scheme.code());
    let columns = if sites { FLAG_SITES } else { 0 } | if kinds { FLAG_KINDS } else { 0 };
    buf.put_u8(flags | columns | if domain.is_some() { FLAG_DOMAINS } else { 0 });
    buf.put_u32_le(tid);
    if let Some(dom) = domain {
        buf.put_u32_le(dom);
    }
    buf
}

/// Serialize one per-thread trace in the single-domain layout.
#[must_use]
pub fn encode_thread_trace(trace: &ThreadTrace, scheme: Scheme, tid: u32) -> Bytes {
    encode_thread_trace_opt(trace, scheme, tid, None)
}

/// Encode with an optional domain tag — the single dispatch point the
/// store layer uses (`None` = single-domain layout).
#[must_use]
pub fn encode_thread_trace_opt(
    trace: &ThreadTrace,
    scheme: Scheme,
    tid: u32,
    domain: Option<u32>,
) -> Bytes {
    let (sites, kinds) = (trace.sites.as_deref(), trace.kinds.as_deref());
    let (id, columns) = ((scheme, tid, domain), (sites.is_some(), kinds.is_some()));
    let mut buf = stream_header(MAGIC_THREAD, id, columns, 0, 9 + trace.values.len() * 2);
    put_payload(&mut buf, &trace.values, sites, kinds, false);
    buf.freeze()
}

/// A decoded per-thread record file, including how it was laid out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedThread {
    /// The reassembled trace.
    pub trace: ThreadTrace,
    /// Scheme stamped in the file header.
    pub scheme: Scheme,
    /// Thread ID stamped in the file header.
    pub tid: u32,
    /// Gate domain stamped in the file header, `None` for single-domain
    /// files without [`FLAG_DOMAINS`].
    pub domain: Option<u32>,
    /// Number of chunks the file was stored as (0 for one-shot files).
    pub chunks: u64,
    /// Format version stamped in the file header.
    pub version: u8,
    /// Largest label table of any one payload (0 for version 1 files and
    /// streams without sites or kinds).
    pub max_labels: u64,
}

/// A decoded ST record file, including how it was laid out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedSt {
    /// The reassembled shared trace.
    pub trace: StTrace,
    /// Gate domain stamped in the file header, as in [`DecodedThread`].
    pub domain: Option<u32>,
    /// Number of chunks the file was stored as (0 for one-shot files).
    pub chunks: u64,
    /// Format version stamped in the file header.
    pub version: u8,
    /// Largest label table of any one payload, as in [`DecodedThread`].
    pub max_labels: u64,
}

/// Chunk-aware deserialization of a per-thread record file: accepts both
/// the one-shot layout and a chunked stream, reassembling the latter into a
/// single [`ThreadTrace`].
pub fn decode_thread_records(bytes: &[u8]) -> Result<DecodedThread, TraceError> {
    decode_thread_records_within(bytes, u64::MAX)
}

/// [`decode_thread_records`] for a caller that knows the file holds at most
/// `max_records`: one claiming more is rejected before it is materialized.
pub(crate) fn decode_thread_records_within(
    bytes: &[u8],
    max_records: u64,
) -> Result<DecodedThread, TraceError> {
    let s = decode_stream::<u64>(bytes, MAGIC_THREAD, max_records)?;
    Ok(DecodedThread {
        trace: ThreadTrace {
            values: s.values,
            sites: s.sites,
            kinds: s.kinds,
        },
        scheme: Scheme::from_code(s.scheme)
            .ok_or_else(|| TraceError::Corrupt("bad scheme code".into()))?,
        tid: s.tid,
        domain: s.domain,
        chunks: s.chunks,
        version: s.version,
        max_labels: s.max_labels,
    })
}

/// A record file as decoded: the header's fields, then the columns, which
/// move into the returned trace as they are.
struct Stream<T> {
    version: u8,
    scheme: u8,
    flags: u8,
    tid: u32,
    domain: Option<u32>,
    values: Vec<T>,
    sites: Option<Vec<u64>>,
    kinds: Option<Vec<u8>>,
    chunks: u64,
    max_labels: u64,
}

/// Decode a whole record file — header, then one payload or chunk after
/// chunk — of at most `max_records` records.
fn decode_stream<T: Value>(
    mut buf: &[u8],
    magic: &[u8; 4],
    max_records: u64,
) -> Result<Stream<T>, TraceError> {
    let version = check_header(&mut buf, magic, VERSION)?;
    if buf.remaining() < 6 {
        return Err(TraceError::Corrupt("header truncated".into()));
    }
    let (scheme, flags, tid) = (buf.get_u8(), buf.get_u8(), buf.get_u32_le());
    let domain = if flags & FLAG_DOMAINS == 0 {
        None
    } else if buf.remaining() < 4 {
        return Err(TraceError::Corrupt("domain id truncated".into()));
    } else {
        Some(buf.get_u32_le())
    };
    if flags & FLAG_COMPRESSED != 0 && flags & FLAG_CHUNKED == 0 {
        return Err(TraceError::Corrupt("compressed but not chunked".into()));
    }
    let mut s = Stream {
        version,
        scheme,
        flags,
        tid,
        domain,
        values: Vec::new(),
        sites: (flags & FLAG_SITES != 0).then(Vec::new),
        kinds: (flags & FLAG_KINDS != 0).then(Vec::new),
        chunks: 0,
        max_labels: 0,
    };
    if flags & FLAG_CHUNKED == 0 {
        get_payload(buf, &mut s, max_records)?;
        return Ok(s);
    }
    while buf.has_remaining() {
        if !buf.starts_with(MAGIC_CHUNK) {
            return Err(TraceError::Corrupt(format!(
                "bad chunk frame {:?} (expected RTCK)",
                &buf[..buf.len().min(4)]
            )));
        }
        buf.advance(4);
        let nbytes = get_count(&mut buf, 1, "chunk byte")?;
        let (payload, rest) = buf.split_at(nbytes);
        get_payload(payload, &mut s, max_records)?;
        buf = rest;
        s.chunks += 1;
    }
    Ok(s)
}

/// Decode one payload — all of `buf`: a chunk's bytes, or the rest of a
/// one-shot file — appending to `s`'s columns. Nothing is reserved before
/// `count` is bounded by `max_records` and by the bytes at hand (or, where
/// runs can exceed those, before they and the exact length are validated).
fn get_payload<T: Value>(
    mut buf: &[u8],
    s: &mut Stream<T>,
    max_records: u64,
) -> Result<(), TraceError> {
    let nbytes = buf.len();
    let v1 = s.version == VERSION_1;
    let values = match (s.flags & FLAG_COMPRESSED != 0, v1) {
        (false, _) => Column::Plain,
        (true, false) => Column::Groups,
        (true, true) => Column::Runs,
    };
    let count = get_uvarint(&mut buf)?;
    // Every record costs a byte, except where all its columns are runs.
    let expands = values != Column::Plain && (v1 || s.sites.is_none() && s.kinds.is_none());
    let bound = if expands {
        nbytes.saturating_mul(MAX_RLE_EXPANSION)
    } else {
        buf.len()
    };
    let room = max_records.saturating_sub(s.values.len() as u64);
    if count > room.min(bound as u64) {
        return Err(TraceError::Corrupt(format!(
            "record count {count} exceeds the payload's {nbytes} bytes, or the {room} records still expected"
        )));
    }
    let count = count as usize;
    let exact = |left: &[u8]| match left.len() {
        0 => Ok(()),
        left => Err(TraceError::Corrupt(format!(
            "payload of {nbytes} bytes but decoding consumed {}",
            nbytes - left
        ))),
    };
    if expands {
        let mut ahead = buf;
        walk_column(&mut ahead, count, values, |_, _| Ok(()))?;
        if s.sites.is_some() {
            walk_column(&mut ahead, count, Column::Runs, |_, _| Ok(()))?;
        }
        if s.kinds.is_some() {
            walk_column(&mut ahead, count, Column::ByteRuns, |_, _| Ok(()))?;
        }
        exact(ahead)?;
    }
    s.values.reserve(count);
    get_values(&mut buf, count, values, &mut s.values)?;
    if v1 {
        get_v1_columns(&mut buf, count, values, s)?;
    } else {
        get_labels(&mut buf, count, s)?;
    }
    exact(buf)
}

/// Decode the label column of a payload of `count` records.
fn get_labels<T>(buf: &mut &[u8], count: usize, s: &mut Stream<T>) -> Result<(), TraceError> {
    let literal = if s.sites.is_some() { 8 } else { 0 } + usize::from(s.kinds.is_some());
    if literal == 0 {
        return Ok(());
    }
    if count > buf.len() {
        return Err(TraceError::Corrupt("label column truncated".into()));
    }
    s.sites.iter_mut().for_each(|sites| sites.reserve(count));
    s.kinds.iter_mut().for_each(|kinds| kinds.reserve(count));
    let mut table: Vec<(u64, u8)> = Vec::new();
    for _ in 0..count {
        let index = get_uvarint(buf)?;
        let known = usize::try_from(index).ok().and_then(|i| table.get(i));
        let (site, kind) = if let Some(&label) = known {
            label
        } else if index != table.len() as u64 {
            return Err(TraceError::Corrupt(format!(
                "label index {index} in a table of {}",
                table.len()
            )));
        } else if buf.len() < literal {
            return Err(TraceError::Corrupt("label literal truncated".into()));
        } else {
            let site = s.sites.as_ref().map_or(0, |_| buf.get_u64_le());
            let kind = s.kinds.as_ref().map_or(0, |_| buf.get_u8());
            if AccessKind::from_code(kind).is_none() {
                return Err(TraceError::Corrupt(format!("bad kind code {kind}")));
            }
            table.push((site, kind));
            (site, kind)
        };
        if let Some(sites) = s.sites.as_mut() {
            sites.push(site);
        }
        if let Some(kinds) = s.kinds.as_mut() {
            kinds.push(kind);
        }
    }
    s.max_labels = s.max_labels.max(table.len() as u64);
    Ok(())
}

/// Decode the site and kind columns of a version 1 payload: raw
/// (`count × u64le`, `count × u8`), or in a compressed chunk (`column` is
/// [`Column::Runs`], like its values) as runs of deltas and of bytes.
fn get_v1_columns<T>(
    buf: &mut &[u8],
    count: usize,
    column: Column,
    s: &mut Stream<T>,
) -> Result<(), TraceError> {
    if let Some(sites) = s.sites.as_mut() {
        if column == Column::Runs {
            get_values(buf, count, column, sites)?;
        } else if count.checked_mul(8).is_none_or(|need| need > buf.len()) {
            // Checked: a corrupt count must not wrap the bound on 32-bit
            // targets and slip past the truncation check.
            return Err(TraceError::Corrupt("site column truncated".into()));
        } else {
            sites.extend((0..count).map(|_| buf.get_u64_le()));
        }
    }
    if let Some(kinds) = s.kinds.as_mut() {
        if column == Column::Runs {
            walk_column(buf, count, Column::ByteRuns, |run, kind| {
                kinds.extend(std::iter::repeat_n(kind as u8, run));
                Ok(())
            })?;
        } else if count > buf.len() {
            return Err(TraceError::Corrupt("kind column truncated".into()));
        } else {
            kinds.extend_from_slice(&buf[..count]);
            buf.advance(count);
        }
    }
    Ok(())
}

/// Header flags of a chunked stream, besides its columns.
fn chunked(compress: bool) -> u8 {
    FLAG_CHUNKED | if compress { FLAG_COMPRESSED } else { 0 }
}

/// Serialize the header of a chunked per-thread stream, written once when
/// a streaming writer opens the file; chunks follow. `compress` stamps
/// [`FLAG_COMPRESSED`], committing every chunk of the stream to a
/// run-length coded value column.
#[must_use]
pub fn encode_thread_stream_header_opt(
    scheme: Scheme,
    tid: u32,
    domain: Option<u32>,
    sites: bool,
    kinds: bool,
    compress: bool,
) -> Bytes {
    let id = (scheme, tid, domain);
    stream_header(MAGIC_THREAD, id, (sites, kinds), chunked(compress), 0).freeze()
}

/// Serialize the header of a chunked ST stream.
#[must_use]
pub fn encode_st_stream_header_opt(
    domain: Option<u32>,
    sites: bool,
    kinds: bool,
    compress: bool,
) -> Bytes {
    let id = (Scheme::St, 0, domain);
    stream_header(MAGIC_ST, id, (sites, kinds), chunked(compress), 0).freeze()
}

/// Serialize one self-delimiting chunk of per-thread records. The delta
/// base restarts at zero and the label table starts empty, so the chunk
/// decodes independently of its predecessors. `compress` run-length codes
/// the value column, and the chunk belongs in a stream whose header
/// carries [`FLAG_COMPRESSED`].
#[must_use]
pub fn encode_thread_chunk_opt(
    values: &[u64],
    sites: Option<&[u64]>,
    kinds: Option<&[u8]>,
    compress: bool,
) -> Bytes {
    encode_chunk(values, sites, kinds, compress)
}

/// Serialize one self-delimiting chunk of the shared ST stream;
/// `compress` as in [`encode_thread_chunk_opt`].
#[must_use]
pub fn encode_st_chunk_opt(
    tids: &[u32],
    sites: Option<&[u64]>,
    kinds: Option<&[u8]>,
    compress: bool,
) -> Bytes {
    encode_chunk(tids, sites, kinds, compress)
}

/// Frame one payload as a chunk: magic, the payload's length, the payload.
fn encode_chunk<T: Value>(
    values: &[T],
    sites: Option<&[u64]>,
    kinds: Option<&[u8]>,
    compress: bool,
) -> Bytes {
    let mut payload = BytesMut::with_capacity(16 + values.len() * 2);
    put_payload(&mut payload, values, sites, kinds, compress);
    let mut out = BytesMut::with_capacity(payload.len() + 14);
    out.put_slice(MAGIC_CHUNK);
    put_uvarint(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    out.freeze()
}

/// Serialize the shared ST trace; `domain` as in
/// [`encode_thread_trace_opt`].
#[must_use]
pub fn encode_st_trace_opt(trace: &StTrace, domain: Option<u32>) -> Bytes {
    let (sites, kinds) = (trace.sites.as_deref(), trace.kinds.as_deref());
    let (id, columns) = ((Scheme::St, 0, domain), (sites.is_some(), kinds.is_some()));
    let mut buf = stream_header(MAGIC_ST, id, columns, 0, 9 + trace.tids.len() * 2);
    put_payload(&mut buf, &trace.tids, sites, kinds, false);
    buf.freeze()
}

/// Chunk-aware deserialization of the shared ST record file.
pub fn decode_st_records(bytes: &[u8]) -> Result<DecodedSt, TraceError> {
    decode_st_records_within(bytes, u64::MAX)
}

/// ST variant of [`decode_thread_records_within`].
pub(crate) fn decode_st_records_within(
    bytes: &[u8],
    max_records: u64,
) -> Result<DecodedSt, TraceError> {
    let s = decode_stream::<u32>(bytes, MAGIC_ST, max_records)?;
    Ok(DecodedSt {
        trace: StTrace {
            tids: s.values,
            sites: s.sites,
            kinds: s.kinds,
        },
        domain: s.domain,
        chunks: s.chunks,
        version: s.version,
        max_labels: s.max_labels,
    })
}

/// Serialize a [`DomainPlan`] as the trace's plan section:
///
/// ```text
/// magic "RTPL" | version u8 | flags u8 (= FLAG_PLAN) | domains u32le |
/// count varint | count × (site u64le | domain varint)   — sorted by site
/// ```
#[must_use]
pub fn encode_plan(plan: &DomainPlan) -> Bytes {
    let entries = plan.sorted_assignments();
    let mut buf = BytesMut::with_capacity(16 + entries.len() * 10);
    buf.put_slice(MAGIC_PLAN);
    buf.put_u8(VERSION_1);
    buf.put_u8(FLAG_PLAN);
    buf.put_u32_le(plan.domains());
    put_uvarint(&mut buf, entries.len() as u64);
    for (site, dom) in entries {
        buf.put_u64_le(site);
        put_uvarint(&mut buf, u64::from(dom));
    }
    buf.freeze()
}

/// Deserialize a plan section. Entry count and every domain id are bounded
/// before allocation.
pub fn decode_plan(mut buf: &[u8]) -> Result<DomainPlan, TraceError> {
    check_header(&mut buf, MAGIC_PLAN, VERSION_1)?;
    if buf.remaining() < 5 {
        return Err(TraceError::Corrupt("plan header truncated".into()));
    }
    let flags = buf.get_u8();
    if flags & FLAG_PLAN == 0 {
        return Err(TraceError::Corrupt("plan section without FLAG_PLAN".into()));
    }
    let domains = buf.get_u32_le();
    if domains == 0 {
        return Err(TraceError::Corrupt("plan with zero domains".into()));
    }
    // Every entry costs at least 9 bytes; bound before building the map.
    let count = get_count(&mut buf, 9, "plan entry")?;
    let mut plan = DomainPlan::new(domains);
    for _ in 0..count {
        if buf.remaining() < 8 {
            return Err(TraceError::Corrupt("plan entry truncated".into()));
        }
        let site = buf.get_u64_le();
        let dom = get_uvarint(&mut buf)?;
        let dom = u32::try_from(dom)
            .ok()
            .filter(|&d| d < domains)
            .ok_or_else(|| {
                TraceError::Corrupt(format!("plan assigns a site to domain {dom} of {domains}"))
            })?;
        plan.set(SiteId(site), dom);
    }
    if buf.has_remaining() {
        return Err(TraceError::Corrupt("plan has trailing bytes".into()));
    }
    Ok(plan)
}

/// Serialize the cross-domain happens-before edges:
///
/// ```text
/// magic "RTHB" | version u8 | flags u8 (= 0) | count varint |
/// count × ( domain varint | thread varint | seq varint |
///           nwaits varint | nwaits × (domain varint | count varint) )
/// ```
#[must_use]
pub fn encode_edges(edges: &[CrossDomainEdge]) -> Bytes {
    let mut buf = BytesMut::with_capacity(8 + edges.len() * 8);
    buf.put_slice(MAGIC_EDGES);
    buf.put_u8(VERSION_1);
    buf.put_u8(0);
    put_uvarint(&mut buf, edges.len() as u64);
    for e in edges {
        put_uvarint(&mut buf, u64::from(e.domain));
        put_uvarint(&mut buf, u64::from(e.thread));
        put_uvarint(&mut buf, e.seq);
        put_uvarint(&mut buf, e.waits.len() as u64);
        for &(dom, count) in &e.waits {
            put_uvarint(&mut buf, u64::from(dom));
            put_uvarint(&mut buf, count);
        }
    }
    buf.freeze()
}

/// Deserialize an edge section; counts are bounded against the remaining
/// bytes before any allocation.
pub fn decode_edges(mut buf: &[u8]) -> Result<Vec<CrossDomainEdge>, TraceError> {
    check_header(&mut buf, MAGIC_EDGES, VERSION_1)?;
    if !buf.has_remaining() {
        return Err(TraceError::Corrupt("edge header truncated".into()));
    }
    let _flags = buf.get_u8();
    // Every edge costs at least 4 bytes (four varints), every wait 2.
    let count = get_count(&mut buf, 4, "edge")?;
    let get_u32 = |buf: &mut &[u8], what: &str| -> Result<u32, TraceError> {
        let v = get_uvarint(buf)?;
        u32::try_from(v).map_err(|_| TraceError::Corrupt(format!("edge {what} {v} out of range")))
    };
    let mut edges = Vec::with_capacity(count);
    for _ in 0..count {
        let domain = get_u32(&mut buf, "domain")?;
        let thread = get_u32(&mut buf, "thread")?;
        let seq = get_uvarint(&mut buf)?;
        let nwaits = get_count(&mut buf, 2, "edge wait")?;
        let mut waits = Vec::with_capacity(nwaits);
        for _ in 0..nwaits {
            let dom = get_u32(&mut buf, "wait domain")?;
            let c = get_uvarint(&mut buf)?;
            waits.push((dom, c));
        }
        edges.push(CrossDomainEdge {
            domain,
            thread,
            seq,
            waits,
        });
    }
    if buf.has_remaining() {
        return Err(TraceError::Corrupt(
            "edge section has trailing bytes".into(),
        ));
    }
    Ok(edges)
}

/// Serialize a flight-recorder [`Checkpoint`] as the trace's checkpoint
/// section:
///
/// ```text
/// magic "RTCP" | version u8 | flags u8 (= 0) | trigger u8 | window u32le |
/// domains varint | domains × base varint |
/// nfloors varint | nfloors × floor varint
/// ```
#[must_use]
pub fn encode_checkpoint(cp: &Checkpoint) -> Bytes {
    let mut buf = BytesMut::with_capacity(16 + (cp.base.len() + cp.floors.len()) * 4);
    buf.put_slice(MAGIC_CHECKPOINT);
    buf.put_u8(VERSION_1);
    buf.put_u8(0);
    buf.put_u8(cp.trigger.code());
    buf.put_u32_le(cp.window);
    put_uvarint(&mut buf, cp.base.len() as u64);
    for &b in &cp.base {
        put_uvarint(&mut buf, b);
    }
    put_uvarint(&mut buf, cp.floors.len() as u64);
    for &f in &cp.floors {
        put_uvarint(&mut buf, f);
    }
    buf.freeze()
}

/// Deserialize a checkpoint section; both counts are bounded against the
/// remaining bytes before any allocation.
pub fn decode_checkpoint(mut buf: &[u8]) -> Result<Checkpoint, TraceError> {
    check_header(&mut buf, MAGIC_CHECKPOINT, VERSION_1)?;
    if buf.remaining() < 6 {
        return Err(TraceError::Corrupt("checkpoint header truncated".into()));
    }
    let _flags = buf.get_u8();
    let trigger_code = buf.get_u8();
    let trigger = DumpTrigger::from_code(trigger_code)
        .ok_or_else(|| TraceError::Corrupt(format!("bad dump trigger code {trigger_code}")))?;
    let window = buf.get_u32_le();
    let get_counts = |buf: &mut &[u8], what: &str| -> Result<Vec<u64>, TraceError> {
        let n = get_count(buf, 1, what)?;
        (0..n).map(|_| get_uvarint(buf)).collect()
    };
    let base = get_counts(&mut buf, "checkpoint base")?;
    let floors = get_counts(&mut buf, "checkpoint floor")?;
    if buf.has_remaining() {
        return Err(TraceError::Corrupt(
            "checkpoint section has trailing bytes".into(),
        ));
    }
    Ok(Checkpoint {
        base,
        floors,
        window,
        trigger,
    })
}

/// Check the magic and read the version, which must be one this build
/// reads: 1 up to `newest`.
fn check_header(buf: &mut &[u8], magic: &[u8; 4], newest: u8) -> Result<u8, TraceError> {
    if buf.remaining() < 6 {
        return Err(TraceError::Corrupt("file shorter than header".into()));
    }
    let mut found = [0u8; 4];
    buf.copy_to_slice(&mut found);
    if &found != magic {
        return Err(TraceError::BadMagic { found });
    }
    let version = buf.get_u8();
    if !(VERSION_1..=newest).contains(&version) {
        return Err(TraceError::BadVersion(version));
    }
    Ok(version)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_boundaries() {
        let mut buf = BytesMut::new();
        let cases = [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX];
        for &v in &cases {
            buf.clear();
            put_uvarint(&mut buf, v);
            let mut b = buf.clone().freeze();
            assert_eq!(get_uvarint(&mut b).unwrap(), v);
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut b = Bytes::from_static(&[0x80]);
        assert!(get_uvarint(&mut b).is_err());
        // 11 continuation bytes overflow u64.
        let mut b = Bytes::from_static(&[0xff; 11]);
        assert!(get_uvarint(&mut b).is_err());
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [-3i64, -1, 0, 1, 2, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn delta_stream_roundtrip_including_decreasing() {
        let values = vec![5u64, 5, 9, 2, 100, 0, u32::MAX as u64];
        let mut buf = BytesMut::new();
        put_values(&mut buf, &values, false);
        let mut back = Vec::<u64>::new();
        get_values(&mut &buf[..], values.len(), Column::Plain, &mut back).unwrap();
        assert_eq!(back, values);
    }

    #[test]
    fn monotone_clock_stream_is_compact() {
        // Per-thread DC clock streams increase with small strides: each
        // delta should cost ~1 byte.
        let values: Vec<u64> = (0..1000u64).map(|i| i * 3).collect();
        let mut buf = BytesMut::new();
        put_values(&mut buf, &values, false);
        assert!(
            buf.len() <= values.len() + 8,
            "expected ~1 B/record, got {} B for {} records",
            buf.len(),
            values.len()
        );
    }

    #[test]
    fn thread_trace_roundtrip_with_columns() {
        let t = ThreadTrace {
            values: vec![0, 4, 4, 9],
            sites: Some(vec![0xdead, 0xbeef, 0xbeef, 0x1]),
            kinds: Some(vec![0, 1, 1, 3]),
        };
        let bytes = encode_thread_trace(&t, Scheme::De, 7);
        let d = decode_thread_records(&bytes).unwrap();
        assert_eq!(d.trace, t);
        assert_eq!(d.scheme, Scheme::De);
        assert_eq!(d.tid, 7);
    }

    #[test]
    fn thread_trace_roundtrip_bare() {
        let t = ThreadTrace {
            values: vec![3, 1, 2],
            sites: None,
            kinds: None,
        };
        let bytes = encode_thread_trace(&t, Scheme::Dc, 0);
        assert_eq!(decode_thread_records(&bytes).unwrap().trace, t);
    }

    #[test]
    fn st_trace_roundtrip() {
        let t = StTrace {
            tids: vec![2, 0, 1, 1, 2],
            sites: Some(vec![9, 9, 9, 9, 9]),
            kinds: Some(vec![3, 3, 3, 3, 3]),
        };
        let bytes = encode_st_trace_opt(&t, None);
        assert_eq!(decode_st_records(&bytes).unwrap().trace, t);
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let t = ThreadTrace::default();
        let bytes = encode_thread_trace(&t, Scheme::Dc, 0);
        let mut corrupted = bytes.to_vec();
        corrupted[0] = b'X';
        assert!(matches!(
            decode_thread_records(&corrupted),
            Err(TraceError::BadMagic { .. })
        ));
        let mut wrong_version = bytes.to_vec();
        wrong_version[4] = 99;
        assert!(matches!(
            decode_thread_records(&wrong_version),
            Err(TraceError::BadVersion(99))
        ));
    }

    #[test]
    fn truncated_columns_rejected() {
        let t = ThreadTrace {
            values: vec![1, 2, 3],
            sites: Some(vec![1, 2, 3]),
            kinds: None,
        };
        let bytes = encode_thread_trace(&t, Scheme::De, 1);
        let cut = &bytes[..bytes.len() - 4];
        assert!(decode_thread_records(cut).is_err());
    }

    #[test]
    fn header_exactly_six_bytes_is_corrupt_not_panic() {
        // Regression: a file cut right after magic+version used to panic in
        // the flags/tid reads instead of returning Corrupt.
        for len in 0..11 {
            let t = ThreadTrace {
                values: vec![1, 2],
                sites: None,
                kinds: None,
            };
            let bytes = encode_thread_trace(&t, Scheme::Dc, 3);
            let cut = &bytes[..len.min(bytes.len())];
            assert!(decode_thread_records(cut).is_err(), "len {len}");
            let st = encode_st_trace_opt(
                &StTrace {
                    tids: vec![0, 1],
                    sites: None,
                    kinds: None,
                },
                None,
            );
            let cut = &st[..len.min(st.len())];
            assert!(decode_st_records(cut).is_err(), "st len {len}");
        }
    }

    #[test]
    fn oversized_count_is_bounded_before_allocation() {
        // A count far beyond the payload must fail fast, not allocate.
        let mut buf = BytesMut::new();
        buf.put_slice(b"RTRC");
        buf.put_u8(1);
        buf.put_u8(Scheme::Dc.code());
        buf.put_u8(0);
        buf.put_u32_le(0);
        put_uvarint(&mut buf, u64::MAX / 2); // absurd record count
        buf.put_u8(0); // one lonely payload byte
        let err = decode_thread_records(&buf.freeze()).unwrap_err();
        assert!(matches!(err, TraceError::Corrupt(_)), "{err}");

        let mut buf = BytesMut::new();
        buf.put_slice(b"RTST");
        buf.put_u8(1);
        buf.put_u8(Scheme::St.code());
        buf.put_u8(0);
        buf.put_u32_le(0);
        put_uvarint(&mut buf, u64::MAX / 2);
        buf.put_u8(0);
        let err = decode_st_records(&buf.freeze()).unwrap_err();
        assert!(matches!(err, TraceError::Corrupt(_)), "{err}");
    }

    fn sample_columns(n: usize) -> (Vec<u64>, Vec<u64>, Vec<u8>) {
        let values: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(3) % 97).collect();
        let sites: Vec<u64> = (0..n as u64).map(|i| 0x1000 + i % 5).collect();
        let kinds: Vec<u8> = (0..n).map(|i| (i % 2) as u8).collect();
        (values, sites, kinds)
    }

    fn encode_in_chunks(
        trace: &ThreadTrace,
        scheme: Scheme,
        tid: u32,
        splits: &[usize],
    ) -> Vec<u8> {
        let mut out = encode_thread_stream_header_opt(
            scheme,
            tid,
            None,
            trace.sites.is_some(),
            trace.kinds.is_some(),
            false,
        )
        .to_vec();
        let mut at = 0usize;
        for &len in splits {
            let end = (at + len).min(trace.values.len());
            if end == at {
                continue;
            }
            out.extend_from_slice(&encode_thread_chunk_opt(
                &trace.values[at..end],
                trace.sites.as_ref().map(|s| &s[at..end]),
                trace.kinds.as_ref().map(|k| &k[at..end]),
                false,
            ));
            at = end;
        }
        assert_eq!(at, trace.values.len(), "splits must cover the trace");
        out
    }

    #[test]
    fn chunked_thread_stream_reassembles_to_one_shot() {
        let (values, sites, kinds) = sample_columns(23);
        let trace = ThreadTrace {
            values,
            sites: Some(sites),
            kinds: Some(kinds),
        };
        let bytes = encode_in_chunks(&trace, Scheme::De, 5, &[7, 1, 10, 23]);
        let d = decode_thread_records(&bytes).unwrap();
        assert_eq!(d.trace, trace);
        assert_eq!(d.scheme, Scheme::De);
        assert_eq!(d.tid, 5);
        assert_eq!(d.chunks, 4);

        // The one-shot encoding of the same records decodes equal.
        let one_shot = encode_thread_trace(&trace, Scheme::De, 5);
        let d1 = decode_thread_records(&one_shot).unwrap();
        assert_eq!(d1.trace, d.trace);
        assert_eq!(d1.chunks, 0);
    }

    #[test]
    fn chunked_stream_with_zero_chunks_is_an_empty_trace() {
        let bytes = encode_thread_stream_header_opt(Scheme::Dc, 2, None, true, true, false);
        let d = decode_thread_records(&bytes).unwrap();
        assert_eq!(d.trace.values, Vec::<u64>::new());
        assert_eq!(d.trace.sites, Some(vec![]));
        assert_eq!(d.trace.kinds, Some(vec![]));
        assert_eq!(d.chunks, 0);
    }

    #[test]
    fn chunked_st_stream_reassembles() {
        let t = StTrace {
            tids: vec![2, 0, 1, 1, 2, 0, 0],
            sites: Some(vec![9; 7]),
            kinds: Some(vec![3; 7]),
        };
        let mut bytes = encode_st_stream_header_opt(None, true, true, false).to_vec();
        for range in [0..3usize, 3..7] {
            bytes.extend_from_slice(&encode_st_chunk_opt(
                &t.tids[range.clone()],
                Some(&t.sites.as_ref().unwrap()[range.clone()]),
                Some(&t.kinds.as_ref().unwrap()[range]),
                false,
            ));
        }
        let d = decode_st_records(&bytes).unwrap();
        assert_eq!(d.trace, t);
        assert_eq!(d.chunks, 2);
    }

    #[test]
    fn corrupt_chunks_rejected() {
        let (values, sites, kinds) = sample_columns(9);
        let trace = ThreadTrace {
            values,
            sites: Some(sites),
            kinds: Some(kinds),
        };
        let good = encode_in_chunks(&trace, Scheme::Dc, 0, &[9]);

        // Truncated mid-chunk.
        for cut in 12..good.len() {
            assert!(decode_thread_records(&good[..cut]).is_err(), "cut {cut}");
        }
        // Bad chunk magic.
        let mut bad = good.clone();
        bad[11] = b'X';
        assert!(decode_thread_records(&bad).is_err());
        // Declared length larger than the remaining bytes.
        let mut bytes =
            encode_thread_stream_header_opt(Scheme::Dc, 0, None, false, false, false).to_vec();
        bytes.extend_from_slice(b"RTCK");
        let mut len = BytesMut::new();
        put_uvarint(&mut len, 1_000_000);
        bytes.extend_from_slice(&len);
        bytes.push(0);
        assert!(decode_thread_records(&bytes).is_err());
    }

    #[test]
    fn legacy_layout_bytes_are_pinned() {
        // Golden bytes of the single-domain ("legacy": domain-less) layout
        // as it is written today, version 2. This test IS the format
        // contract — a change here needs a new version number.
        let t = ThreadTrace {
            values: vec![0, 1, 3],
            sites: None,
            kinds: None,
        };
        let bytes = encode_thread_trace(&t, Scheme::Dc, 2);
        let expected: &[u8] = &[
            b'R', b'T', b'R', b'C', // magic
            2,    // version
            1,    // scheme dc
            0,    // flags: no columns, no chunking, no domains
            2, 0, 0, 0, // tid u32le
            3, // count varint
            0, // delta 0 (zigzag)
            2, // delta +1
            4, // delta +2
        ];
        assert_eq!(&bytes[..], expected);

        let st = StTrace {
            tids: vec![1, 0],
            sites: None,
            kinds: None,
        };
        let bytes = encode_st_trace_opt(&st, None);
        let expected: &[u8] = &[
            b'R', b'T', b'S', b'T', // magic
            2, 0, 0, // version, scheme st = 0, flags
            0, 0, 0, 0, // tid u32le (always 0 for the shared stream)
            2, // count
            1, 0, // tids
        ];
        assert_eq!(&bytes[..], expected);

        // With columns: each record is its label's index, and a label's
        // literal follows its first use.
        let t = ThreadTrace {
            values: vec![5, 6, 8],
            sites: Some(vec![0x0102, 0x0102, 7]),
            kinds: Some(vec![1, 1, 0]),
        };
        let bytes = encode_thread_trace(&t, Scheme::De, 0);
        let expected: &[u8] = &[
            b'R', b'T', b'R', b'C', 2, 2, 3, 0, 0, 0, 0, // header: de, sites | kinds
            3, 10, 2, 4, // count, zigzag deltas +5 +1 +2
            0, 2, 1, 0, 0, 0, 0, 0, 0, 1, // label 0 is new: site 0x0102, kind 1
            0, // label 0 again
            1, 7, 0, 0, 0, 0, 0, 0, 0, 0, // label 1 is new: site 7, kind 0
        ];
        assert_eq!(&bytes[..], expected);
    }

    #[test]
    fn domain_header_roundtrips() {
        let t = ThreadTrace {
            values: vec![4, 4, 7],
            sites: Some(vec![1, 2, 3]),
            kinds: Some(vec![0, 1, 0]),
        };
        let bytes = encode_thread_trace_opt(&t, Scheme::De, 3, Some(2));
        let d = decode_thread_records(&bytes).unwrap();
        assert_eq!(d.trace, t);
        assert_eq!((d.scheme, d.tid, d.domain), (Scheme::De, 3, Some(2)));
        // Legacy files report no domain.
        let legacy = encode_thread_trace(&t, Scheme::De, 3);
        assert_eq!(decode_thread_records(&legacy).unwrap().domain, None);
        // The domain header costs exactly 4 extra bytes.
        assert_eq!(bytes.len(), legacy.len() + 4);

        let st = StTrace {
            tids: vec![0, 1, 1],
            sites: None,
            kinds: None,
        };
        let bytes = encode_st_trace_opt(&st, Some(5));
        let d = decode_st_records(&bytes).unwrap();
        assert_eq!(d.trace, st);
        assert_eq!(d.domain, Some(5));
        assert_eq!(
            decode_st_records(&encode_st_trace_opt(&st, None))
                .unwrap()
                .domain,
            None
        );
    }

    #[test]
    fn chunked_domain_streams_roundtrip() {
        let t = ThreadTrace {
            values: vec![0, 2, 5, 9],
            sites: None,
            kinds: None,
        };
        let mut bytes =
            encode_thread_stream_header_opt(Scheme::Dc, 1, Some(3), false, false, false).to_vec();
        bytes.extend_from_slice(&encode_thread_chunk_opt(&t.values[..2], None, None, false));
        bytes.extend_from_slice(&encode_thread_chunk_opt(&t.values[2..], None, None, false));
        let d = decode_thread_records(&bytes).unwrap();
        assert_eq!(d.trace, t);
        assert_eq!((d.tid, d.domain, d.chunks), (1, Some(3), 2));

        let mut bytes = encode_st_stream_header_opt(Some(7), false, false, false).to_vec();
        bytes.extend_from_slice(&encode_st_chunk_opt(&[0, 1], None, None, false));
        let d = decode_st_records(&bytes).unwrap();
        assert_eq!(d.trace.tids, vec![0, 1]);
        assert_eq!(d.domain, Some(7));
    }

    #[test]
    fn truncated_domain_id_is_corrupt_not_panic() {
        let t = ThreadTrace {
            values: vec![1],
            sites: None,
            kinds: None,
        };
        let bytes = encode_thread_trace_opt(&t, Scheme::Dc, 0, Some(9));
        // Cut inside the 4-byte domain id (header is 11 + 4 bytes).
        for cut in 11..15 {
            let err = decode_thread_records(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, TraceError::Corrupt(_)), "cut {cut}: {err}");
        }
    }

    #[test]
    fn plan_roundtrip() {
        let plan = DomainPlan::with_assignments(
            4,
            [(SiteId(9), 3), (SiteId(0xdead_beef), 0), (SiteId(1), 1)],
        );
        let bytes = encode_plan(&plan);
        assert_eq!(decode_plan(&bytes).unwrap(), plan);
        // Empty plans (pure hash fallback) roundtrip too.
        let empty = DomainPlan::new(2);
        assert_eq!(decode_plan(&encode_plan(&empty)).unwrap(), empty);
    }

    #[test]
    fn plan_bytes_are_pinned() {
        // Golden bytes for the plan section — the on-disk format contract.
        let plan = DomainPlan::with_assignments(2, [(SiteId(3), 1)]);
        let bytes = encode_plan(&plan);
        let expected: &[u8] = &[
            b'R', b'T', b'P', b'L', // magic
            1,    // version
            16,   // flags = FLAG_PLAN
            2, 0, 0, 0, // domains u32le
            1, // entry count varint
            3, 0, 0, 0, 0, 0, 0, 0, // site u64le
            1, // domain varint
        ];
        assert_eq!(&bytes[..], expected);
    }

    #[test]
    fn plan_rejects_corrupt_input() {
        let plan = DomainPlan::with_assignments(2, [(SiteId(3), 1), (SiteId(7), 0)]);
        let good = encode_plan(&plan);
        for cut in 0..good.len() {
            assert!(decode_plan(&good[..cut]).is_err(), "cut {cut}");
        }
        // Out-of-range domain id.
        let mut buf = BytesMut::new();
        buf.put_slice(b"RTPL");
        buf.put_u8(1);
        buf.put_u8(FLAG_PLAN);
        buf.put_u32_le(2);
        put_uvarint(&mut buf, 1);
        buf.put_u64_le(3);
        put_uvarint(&mut buf, 5); // domain 5 of 2
        assert!(decode_plan(&buf.freeze()).is_err());
        // Absurd entry count must fail before allocation.
        let mut buf = BytesMut::new();
        buf.put_slice(b"RTPL");
        buf.put_u8(1);
        buf.put_u8(FLAG_PLAN);
        buf.put_u32_le(2);
        put_uvarint(&mut buf, u64::MAX / 2);
        buf.put_u8(0);
        assert!(decode_plan(&buf.freeze()).is_err());
        // Trailing garbage rejected.
        let mut tail = good.to_vec();
        tail.push(0);
        assert!(decode_plan(&tail).is_err());
    }

    #[test]
    fn edges_roundtrip() {
        let edges = vec![
            CrossDomainEdge {
                domain: 1,
                thread: 0,
                seq: 4,
                waits: vec![(0, 7), (2, 1)],
            },
            CrossDomainEdge {
                domain: 0,
                thread: 3,
                seq: 0,
                waits: vec![(1, 100)],
            },
        ];
        let bytes = encode_edges(&edges);
        assert_eq!(decode_edges(&bytes).unwrap(), edges);
        assert_eq!(decode_edges(&encode_edges(&[])).unwrap(), vec![]);
    }

    #[test]
    fn edge_bytes_are_pinned() {
        let edges = vec![CrossDomainEdge {
            domain: 1,
            thread: 2,
            seq: 3,
            waits: vec![(0, 5)],
        }];
        let bytes = encode_edges(&edges);
        let expected: &[u8] = &[
            b'R', b'T', b'H', b'B', // magic
            1, 0, // version, flags
            1, // edge count
            1, 2, 3, // domain, thread, seq varints
            1, // wait count
            0, 5, // wait (domain, count)
        ];
        assert_eq!(&bytes[..], expected);
    }

    #[test]
    fn edges_reject_corrupt_input() {
        let edges = vec![CrossDomainEdge {
            domain: 0,
            thread: 1,
            seq: 9,
            waits: vec![(1, 2)],
        }];
        let good = encode_edges(&edges);
        for cut in 0..good.len() {
            assert!(decode_edges(&good[..cut]).is_err(), "cut {cut}");
        }
        // Oversized edge count bounded before allocation.
        let mut buf = BytesMut::new();
        buf.put_slice(b"RTHB");
        buf.put_u8(1);
        buf.put_u8(0);
        put_uvarint(&mut buf, u64::MAX / 2);
        buf.put_u8(0);
        assert!(decode_edges(&buf.freeze()).is_err());
        // Oversized wait count bounded too.
        let mut buf = BytesMut::new();
        buf.put_slice(b"RTHB");
        buf.put_u8(1);
        buf.put_u8(0);
        put_uvarint(&mut buf, 1); // one edge
        put_uvarint(&mut buf, 0); // domain
        put_uvarint(&mut buf, 0); // thread
        put_uvarint(&mut buf, 0); // seq
        put_uvarint(&mut buf, u64::MAX / 4); // nwaits
        buf.put_u8(0);
        assert!(decode_edges(&buf.freeze()).is_err());
    }

    #[test]
    fn st_rejects_oversized_tid() {
        let mut buf = BytesMut::new();
        buf.put_slice(b"RTST");
        buf.put_u8(1); // version
        buf.put_u8(Scheme::St.code());
        buf.put_u8(0); // flags
        buf.put_u32_le(0);
        put_uvarint(&mut buf, 1); // one record
        put_uvarint(&mut buf, u64::from(u32::MAX) + 10); // tid out of range
        assert!(decode_st_records(&buf.freeze()).is_err());
    }

    #[test]
    fn rle_delta_stream_roundtrip_and_compression() {
        // Constant stride collapses to one literal and one run per stream.
        let values: Vec<u64> = (0..1000u64).collect();
        let mut buf = BytesMut::new();
        put_values(&mut buf, &values, true);
        assert!(buf.len() <= 6, "1000 unit strides in {} bytes", buf.len());
        let mut back = Vec::<u64>::new();
        get_values(&mut &buf[..], values.len(), Column::Groups, &mut back).unwrap();
        assert_eq!(back, values);

        // Irregular streams still roundtrip, one head dearer than plain.
        let values = vec![5u64, 5, 9, 2, 100, 0, u32::MAX as u64];
        let mut buf = BytesMut::new();
        put_values(&mut buf, &values, true);
        let mut back = Vec::<u64>::new();
        get_values(&mut &buf[..], values.len(), Column::Groups, &mut back).unwrap();
        assert_eq!(back, values);
        let mut plain = BytesMut::new();
        put_values(&mut plain, &values, false);
        assert_eq!(buf.len(), plain.len() + 1);
    }

    #[test]
    fn grouped_values_never_lose_to_plain_by_more_than_a_head() {
        // Runs of every length up to 9 between wandering strides: only a
        // run that pays for its head (and for splitting the literals
        // around it) is coded as a run.
        let mut values = Vec::new();
        let mut clock = 0u64;
        for round in 0..200u64 {
            clock += 2 + round % 7;
            for _ in 0..round % 10 {
                clock += 1;
                values.push(clock);
            }
        }
        let (mut plain, mut grouped) = (BytesMut::new(), BytesMut::new());
        put_values(&mut plain, &values, false);
        put_values(&mut grouped, &values, true);
        assert!(
            grouped.len() < plain.len(),
            "{} vs {}",
            grouped.len(),
            plain.len()
        );
        let mut back = Vec::<u64>::new();
        get_values(&mut &grouped[..], values.len(), Column::Groups, &mut back).unwrap();
        assert_eq!(back, values);

        // No run at all: one head (two bytes for 4096 literals) is the cost.
        let values: Vec<u64> = (0..4096u64).map(|i| i * i).collect();
        let (mut plain, mut grouped) = (BytesMut::new(), BytesMut::new());
        put_values(&mut plain, &values, false);
        put_values(&mut grouped, &values, true);
        assert_eq!(grouped.len(), plain.len() + 2);
    }

    #[test]
    fn rle_decoder_rejects_bad_runs() {
        let noop = |_, _| Ok(());
        for column in [Column::Runs, Column::Groups] {
            let head = |len: u64| {
                if column == Column::Groups {
                    len << 1 | 1
                } else {
                    len
                }
            };
            // A zero run length can never make progress.
            let mut out = Vec::<u64>::new();
            let mut buf = BytesMut::new();
            put_uvarint(&mut buf, head(0));
            put_uvarint(&mut buf, 2);
            assert!(get_values(&mut &buf[..], 3, column, &mut out).is_err());
            // A run overshooting the expected count is corrupt, not truncated.
            let mut buf = BytesMut::new();
            put_uvarint(&mut buf, head(9));
            put_uvarint(&mut buf, 2);
            assert!(get_values(&mut &buf[..], 3, column, &mut out).is_err());
            assert!(out.is_empty(), "a rejected run produces nothing");
        }
        // So are empty and overshooting groups of literals, and a group cut
        // short.
        for bytes in [&[0u8, 2][..], &[8, 2, 2, 2, 2], &[6, 2, 2]] {
            assert!(walk_column(&mut &bytes[..], 3, Column::Groups, noop).is_err());
        }
        // A byte column that overshoots, or ends after a run length.
        assert!(walk_column(&mut &[9u8, 2][..], 3, Column::ByteRuns, noop).is_err());
        assert!(walk_column(&mut &[3u8][..], 3, Column::ByteRuns, noop).is_err());
    }

    #[test]
    fn compressed_chunk_stream_roundtrips() {
        let values: Vec<u64> = (10..5010u64).collect();
        let sites: Vec<u64> = values.iter().map(|v| 0x900 + v % 4).collect();
        let kinds: Vec<u8> = values.iter().map(|v| (v % 2) as u8).collect();
        let mut file = BytesMut::new();
        file.put_slice(&encode_thread_stream_header_opt(
            Scheme::Dc,
            3,
            Some(1),
            true,
            true,
            true,
        ));
        for chunk in values.chunks(700) {
            let at = (chunk[0] - values[0]) as usize;
            file.put_slice(&encode_thread_chunk_opt(
                chunk,
                Some(&sites[at..at + chunk.len()]),
                Some(&kinds[at..at + chunk.len()]),
                true,
            ));
        }
        let d = decode_thread_records(&file.freeze()).unwrap();
        assert_eq!(d.trace.values, values);
        assert_eq!(d.trace.sites.as_deref(), Some(&sites[..]));
        assert_eq!(d.trace.kinds.as_deref(), Some(&kinds[..]));
        assert_eq!((d.tid, d.domain, d.chunks), (3, Some(1), 8));
    }

    #[test]
    fn compressed_st_stream_roundtrips() {
        let tids: Vec<u32> = (0..600).map(|i| (i / 100) % 3).collect();
        let mut file = BytesMut::new();
        file.put_slice(&encode_st_stream_header_opt(None, false, false, true));
        file.put_slice(&encode_st_chunk_opt(&tids, None, None, true));
        let d = decode_st_records(&file.freeze()).unwrap();
        assert_eq!(d.trace.tids, tids);
    }

    #[test]
    fn compressed_chunks_beat_plain_on_regular_streams() {
        // The payload a DE flush typically produces: a slowly-advancing
        // epoch column, whose runs collapse, plus the one-byte labels,
        // which are never run-length coded.
        let values: Vec<u64> = (0..4096u64).map(|i| i / 64).collect();
        let sites: Vec<u64> = (0..4096u64).map(|i| 0x900 + i % 4).collect();
        let kinds: Vec<u8> = vec![1; 4096];
        let plain = encode_thread_chunk_opt(&values, Some(&sites), Some(&kinds), false);
        let packed = encode_thread_chunk_opt(&values, Some(&sites), Some(&kinds), true);
        assert!(plain.len() <= 2 * 4096 + 64, "2 B/record: {}", plain.len());
        assert!(packed.len() <= 4096 + 512, "~1 B/record: {}", packed.len());
        // Without labels the value column is all there is: >10x.
        let plain = encode_thread_chunk_opt(&values, None, None, false);
        let packed = encode_thread_chunk_opt(&values, None, None, true);
        assert!(
            packed.len() * 10 < plain.len(),
            "expected >10x on regular streams: {} vs {}",
            packed.len(),
            plain.len()
        );
    }

    #[test]
    fn compression_flag_requires_chunked_stream() {
        let mut buf = BytesMut::new();
        buf.put_slice(b"RTRC");
        buf.put_u8(1);
        buf.put_u8(Scheme::Dc.code());
        buf.put_u8(FLAG_COMPRESSED); // compressed but not chunked
        buf.put_u32_le(0);
        put_uvarint(&mut buf, 0);
        assert!(decode_thread_records(&buf.freeze()).is_err());
    }

    #[test]
    fn checkpoint_section_roundtrips_and_pins_bytes() {
        let cp = Checkpoint {
            base: vec![128, 0, 7],
            floors: vec![130, 1, 7],
            window: 4,
            trigger: DumpTrigger::Divergence,
        };
        let bytes = encode_checkpoint(&cp);
        // Golden bytes: magic, version, flags, trigger, window u32le,
        // 3 bases (128 needs two varint bytes), 3 floors.
        assert_eq!(
            &bytes[..],
            [
                b'R', b'T', b'C', b'P', 1, 0, 2, 4, 0, 0, 0, // header
                3, 0x80, 0x01, 0, 7, // base
                3, 0x82, 0x01, 1, 7, // floors
            ]
        );
        assert_eq!(decode_checkpoint(&bytes).unwrap(), cp);

        let cp = Checkpoint::default();
        assert_eq!(decode_checkpoint(&encode_checkpoint(&cp)).unwrap(), cp);
    }

    #[test]
    fn checkpoint_decoder_rejects_corrupt_input() {
        let cp = Checkpoint {
            base: vec![1, 2],
            floors: vec![],
            window: 2,
            trigger: DumpTrigger::Panic,
        };
        let good = encode_checkpoint(&cp);
        for cut in 0..good.len() {
            assert!(decode_checkpoint(&good[..cut]).is_err(), "cut {cut}");
        }
        // Trailing bytes.
        let mut long = good.to_vec();
        long.push(0);
        assert!(decode_checkpoint(&long).is_err());
        // Bad trigger code.
        let mut bad = good.to_vec();
        bad[6] = 250;
        assert!(decode_checkpoint(&bad).is_err());
        // Oversized base count bounded before allocation.
        let mut buf = BytesMut::new();
        buf.put_slice(b"RTCP");
        buf.put_u8(1);
        buf.put_u8(0);
        buf.put_u8(0);
        buf.put_u32_le(1);
        put_uvarint(&mut buf, u64::MAX / 2);
        assert!(decode_checkpoint(&buf.freeze()).is_err());
    }
}
