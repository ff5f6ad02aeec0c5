//! Binary record-file format.
//!
//! Record files must be cheap to write on the record hot path and compact
//! enough that trace I/O does not dominate (§II-B: the scalability of any
//! record-and-replay tool is ultimately bounded by its file-system usage).
//!
//! * Clock/epoch streams are **zigzag-delta varint** encoded: per-thread
//!   clock sequences are strictly increasing and DE epoch sequences are
//!   non-decreasing under the contiguous policy, so deltas are small
//!   non-negative integers that typically fit one byte.
//! * Thread-ID streams (ST) are plain varints.
//! * Site hashes are fixed 8-byte little-endian words (they are uniform
//!   hashes; varint would expand them).
//! * Kind codes are raw bytes.
//!
//! One-shot file layout (`encode_thread_trace`):
//!
//! ```text
//! magic "RTRC" | version u8 | scheme u8 | flags u8 | tid u32le |
//! [domain u32le]            (flags bit 3, FLAG_DOMAINS)
//! count varint | values (zigzag-delta varints) |
//! [sites: count × u64le]   (flags bit 0)
//! [kinds: count × u8]      (flags bit 1)
//! ```
//!
//! The ST stream uses magic `RTST` and a tid varint stream instead of the
//! value stream.
//!
//! Record files of a multi-domain recording (gate domains, see
//! [`crate::session::SessionConfig::domains`]) carry [`FLAG_DOMAINS`] and a
//! 4-byte little-endian domain id right after the tid. Single-domain
//! recordings never set the flag, so their files are byte-identical to the
//! pre-domain format and old traces decode unchanged (the decoder reports
//! `domain: None` for them).
//!
//! # Chunked (streaming) layout
//!
//! A record file whose header carries [`FLAG_CHUNKED`] (flags bit 2) is a
//! concatenation of **self-delimiting chunks** after the same 11-byte
//! header. Streaming recorders append one chunk per flush, so a trace never
//! has to exist in memory as a whole:
//!
//! ```text
//! header (flags | CHUNKED) | chunk* where each chunk is
//!   magic "RTCK" | nbytes varint | count varint |
//!   values (zigzag-delta varints, delta base restarts at 0) |
//!   [sites: count × u64le] [kinds: count × u8]
//! ```
//!
//! `nbytes` covers everything after itself up to the end of the chunk, so a
//! reader can bound-check (and skip) a chunk without decoding it. The delta
//! base restarts at zero in every chunk, making chunks independently
//! decodable. Decoding a chunked file concatenates the chunks back into one
//! [`ThreadTrace`]/[`StTrace`]; the result is indistinguishable from the
//! one-shot encoding of the same records.
//!
//! # Corrupt-input hardening
//!
//! All decode paths are total: record counts and chunk lengths are bounded
//! against the remaining buffer *before* any allocation (a corrupt varint
//! cannot trigger an OOM-sized `Vec::with_capacity`), and truncated
//! headers, value streams, or site/kind column tails yield
//! [`TraceError::Corrupt`] instead of panicking.

use crate::error::TraceError;
use crate::plan::DomainPlan;
use crate::session::Scheme;
use crate::site::SiteId;
use crate::trace::{Checkpoint, CrossDomainEdge, DumpTrigger, StTrace, ThreadTrace};
use bytes::{Buf, BufMut, Bytes, BytesMut};

const MAGIC_THREAD: &[u8; 4] = b"RTRC";
const MAGIC_ST: &[u8; 4] = b"RTST";
const MAGIC_CHUNK: &[u8; 4] = b"RTCK";
const MAGIC_PLAN: &[u8; 4] = b"RTPL";
const MAGIC_EDGES: &[u8; 4] = b"RTHB";
const MAGIC_CHECKPOINT: &[u8; 4] = b"RTCP";
const VERSION: u8 = 1;
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
/// Header flag marking a stream whose chunk payloads are run-length
/// compressed (see [`encode_thread_chunk_opt`]); only valid together with
/// [`FLAG_CHUNKED`].
pub const FLAG_COMPRESSED: u8 = 32;

/// Upper bound on how many records a compressed chunk may claim per
/// payload byte. RLE legitimately decodes to many more records than it
/// occupies bytes, so the usual `count <= nbytes` bound does not apply;
/// this cap keeps a corrupt count from provoking an OOM-sized decode
/// while allowing any compression ratio a real recording can reach
/// (chunks hold at most one flush of records).
const MAX_RLE_EXPANSION: usize = 4096;

/// Append `v` as an LEB128 unsigned varint.
pub fn put_uvarint(buf: &mut BytesMut, mut v: u64) {
    while v >= 0x80 {
        buf.put_u8((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    buf.put_u8(v as u8);
}

/// Read one LEB128 unsigned varint.
pub fn get_uvarint(buf: &mut Bytes) -> Result<u64, TraceError> {
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

/// Encode a u64 stream as zigzag deltas (count is **not** written here).
pub fn put_delta_stream(buf: &mut BytesMut, values: &[u64]) {
    let mut prev = 0i64;
    for &v in values {
        let cur = v as i64;
        put_uvarint(buf, zigzag(cur.wrapping_sub(prev)));
        prev = cur;
    }
}

/// Decode `count` zigzag-delta values. `count` is bounded against the
/// remaining buffer (every value costs at least one byte) before the output
/// vector is allocated, so a corrupt count cannot OOM.
pub fn get_delta_stream(buf: &mut Bytes, count: usize) -> Result<Vec<u64>, TraceError> {
    if count > buf.remaining() {
        return Err(TraceError::Corrupt(format!(
            "value count {count} exceeds the {} remaining bytes",
            buf.remaining()
        )));
    }
    let mut out = Vec::with_capacity(count);
    let mut prev = 0i64;
    for _ in 0..count {
        let d = unzigzag(get_uvarint(buf)?);
        prev = prev.wrapping_add(d);
        out.push(prev as u64);
    }
    Ok(out)
}

/// Maximal runs of equal adjacent elements, as `(run_length, &value)`
/// pairs. The run-length scanner shared by every RLE stage of the codec
/// pipeline (compressed chunk payloads here, receive-event compression in
/// `rmpi::compress`).
pub fn rle_runs<T: PartialEq>(items: &[T]) -> Vec<(u64, &T)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < items.len() {
        let mut j = i + 1;
        while j < items.len() && items[j] == items[i] {
            j += 1;
        }
        out.push(((j - i) as u64, &items[i]));
        i = j;
    }
    out
}

/// Encode a u64 stream as run-length-encoded zigzag deltas:
/// `(run_len varint, delta varint)` per maximal run of equal deltas. The
/// delta base starts at 0 like [`put_delta_stream`], so clock streams
/// with a constant stride — and constant columns like repeated sites —
/// collapse to a handful of bytes.
pub fn put_rle_delta_stream(buf: &mut BytesMut, values: &[u64]) {
    let mut prev = 0i64;
    let deltas: Vec<u64> = values
        .iter()
        .map(|&v| {
            let cur = v as i64;
            let d = zigzag(cur.wrapping_sub(prev));
            prev = cur;
            d
        })
        .collect();
    for (run, &delta) in rle_runs(&deltas) {
        put_uvarint(buf, run);
        put_uvarint(buf, delta);
    }
}

/// Decode `count` values from a run-length-encoded zigzag-delta stream.
/// Run lengths must be non-zero and sum to exactly `count`; the caller
/// bounds `count` (see `MAX_RLE_EXPANSION`) before this allocates.
pub fn get_rle_delta_stream(buf: &mut Bytes, count: usize) -> Result<Vec<u64>, TraceError> {
    let mut out = Vec::with_capacity(count);
    let mut prev = 0i64;
    while out.len() < count {
        let run = get_uvarint(buf)? as usize;
        if run == 0 || run > count - out.len() {
            return Err(TraceError::Corrupt(format!(
                "RLE run of {run} in a stream expecting {} more values",
                count - out.len()
            )));
        }
        let d = unzigzag(get_uvarint(buf)?);
        for _ in 0..run {
            prev = prev.wrapping_add(d);
            out.push(prev as u64);
        }
    }
    Ok(out)
}

/// Encode a byte column as `(run_len varint, byte)` runs.
fn put_rle_bytes(buf: &mut BytesMut, bytes: &[u8]) {
    for (run, &b) in rle_runs(bytes) {
        put_uvarint(buf, run);
        buf.put_u8(b);
    }
}

/// Decode `count` bytes from a run-length-encoded column.
fn get_rle_bytes(buf: &mut Bytes, count: usize) -> Result<Vec<u8>, TraceError> {
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let run = get_uvarint(buf)? as usize;
        if run == 0 || run > count - out.len() {
            return Err(TraceError::Corrupt(format!(
                "RLE run of {run} in a column expecting {} more bytes",
                count - out.len()
            )));
        }
        if !buf.has_remaining() {
            return Err(TraceError::Corrupt("RLE column truncated".into()));
        }
        let b = buf.get_u8();
        out.extend(std::iter::repeat_n(b, run));
    }
    Ok(out)
}

fn flags_of(sites: bool, kinds: bool) -> u8 {
    (if sites { FLAG_SITES } else { 0 }) | (if kinds { FLAG_KINDS } else { 0 })
}

fn put_columns(
    buf: &mut BytesMut,
    count: usize,
    sites: Option<&Vec<u64>>,
    kinds: Option<&Vec<u8>>,
) {
    if let Some(sites) = sites {
        debug_assert_eq!(sites.len(), count);
        for &s in sites {
            buf.put_u64_le(s);
        }
    }
    if let Some(kinds) = kinds {
        debug_assert_eq!(kinds.len(), count);
        buf.put_slice(kinds);
    }
}

type Columns = (Option<Vec<u64>>, Option<Vec<u8>>);

fn get_columns(buf: &mut Bytes, count: usize, flags: u8) -> Result<Columns, TraceError> {
    let sites = if flags & FLAG_SITES != 0 {
        // Checked multiply: a corrupt count must not wrap the bound on
        // 32-bit targets and slip past the truncation check.
        let need = count
            .checked_mul(8)
            .ok_or_else(|| TraceError::Corrupt("site column length overflows".into()))?;
        if buf.remaining() < need {
            return Err(TraceError::Corrupt("site column truncated".into()));
        }
        Some((0..count).map(|_| buf.get_u64_le()).collect())
    } else {
        None
    };
    let kinds = if flags & FLAG_KINDS != 0 {
        if buf.remaining() < count {
            return Err(TraceError::Corrupt("kind column truncated".into()));
        }
        let mut k = vec![0u8; count];
        buf.copy_to_slice(&mut k);
        Some(k)
    } else {
        None
    };
    Ok((sites, kinds))
}

/// Write the shared header: magic, version, scheme, flags (with
/// [`FLAG_DOMAINS`] folded in when `domain` is present), tid, and the
/// optional domain id.
fn put_header(
    buf: &mut BytesMut,
    magic: &[u8; 4],
    scheme: Scheme,
    flags: u8,
    tid: u32,
    domain: Option<u32>,
) {
    buf.put_slice(magic);
    buf.put_u8(VERSION);
    buf.put_u8(scheme.code());
    buf.put_u8(flags | if domain.is_some() { FLAG_DOMAINS } else { 0 });
    buf.put_u32_le(tid);
    if let Some(dom) = domain {
        buf.put_u32_le(dom);
    }
}

/// Serialize one per-thread trace in the legacy (single-domain) layout —
/// byte-identical to the pre-domain format.
#[must_use]
pub fn encode_thread_trace(trace: &ThreadTrace, scheme: Scheme, tid: u32) -> Bytes {
    encode_thread_trace_opt(trace, scheme, tid, None)
}

/// Encode with an optional domain tag — the single dispatch point the
/// store layer uses (`None` = legacy single-domain layout).
pub(crate) fn encode_thread_trace_opt(
    trace: &ThreadTrace,
    scheme: Scheme,
    tid: u32,
    domain: Option<u32>,
) -> Bytes {
    let mut buf = BytesMut::with_capacity(20 + trace.values.len() * 2);
    put_header(
        &mut buf,
        MAGIC_THREAD,
        scheme,
        flags_of(trace.sites.is_some(), trace.kinds.is_some()),
        tid,
        domain,
    );
    put_uvarint(&mut buf, trace.values.len() as u64);
    put_delta_stream(&mut buf, &trace.values);
    put_columns(
        &mut buf,
        trace.values.len(),
        trace.sites.as_ref(),
        trace.kinds.as_ref(),
    );
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
    /// Gate domain stamped in the file header, `None` for legacy
    /// (single-domain) files without [`FLAG_DOMAINS`].
    pub domain: Option<u32>,
    /// Number of chunks the file was stored as (0 for one-shot files).
    pub chunks: u64,
}

/// A decoded ST record file, including how it was laid out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedSt {
    /// The reassembled shared trace.
    pub trace: StTrace,
    /// Gate domain stamped in the file header, `None` for legacy files.
    pub domain: Option<u32>,
    /// Number of chunks the file was stored as (0 for one-shot files).
    pub chunks: u64,
}

/// Deserialize one per-thread trace; returns the trace, its scheme, and tid.
pub fn decode_thread_trace(bytes: &[u8]) -> Result<(ThreadTrace, Scheme, u32), TraceError> {
    let d = decode_thread_records(bytes)?;
    Ok((d.trace, d.scheme, d.tid))
}

/// Chunk-aware deserialization of a per-thread record file: accepts both
/// the one-shot layout and a chunked stream, reassembling the latter into a
/// single [`ThreadTrace`].
pub fn decode_thread_records(bytes: &[u8]) -> Result<DecodedThread, TraceError> {
    let mut buf = Bytes::copy_from_slice(bytes);
    check_header(&mut buf, MAGIC_THREAD)?;
    if buf.remaining() < 6 {
        return Err(TraceError::Corrupt("header truncated".into()));
    }
    let scheme = Scheme::from_code(buf.get_u8())
        .ok_or_else(|| TraceError::Corrupt("bad scheme code".into()))?;
    let flags = buf.get_u8();
    let tid = buf.get_u32_le();
    let domain = get_domain(&mut buf, flags)?;
    check_compressed_is_chunked(flags)?;
    let (trace, chunks) = if flags & FLAG_CHUNKED != 0 {
        let mut trace = empty_thread_trace(flags);
        let mut chunks = 0u64;
        while buf.has_remaining() {
            let (values, sites, kinds) = get_chunk(&mut buf, flags, StreamKind::Deltas)?;
            trace.values.extend(values);
            if let (Some(dst), Some(src)) = (trace.sites.as_mut(), sites) {
                dst.extend(src);
            }
            if let (Some(dst), Some(src)) = (trace.kinds.as_mut(), kinds) {
                dst.extend(src);
            }
            chunks += 1;
        }
        (trace, chunks)
    } else {
        let count = get_uvarint(&mut buf)? as usize;
        let values = get_delta_stream(&mut buf, count)?;
        let (sites, kinds) = get_columns(&mut buf, count, flags)?;
        (
            ThreadTrace {
                values,
                sites,
                kinds,
            },
            0,
        )
    };
    Ok(DecodedThread {
        trace,
        scheme,
        tid,
        domain,
        chunks,
    })
}

/// Read the optional [`FLAG_DOMAINS`] domain id following the tid.
fn get_domain(buf: &mut Bytes, flags: u8) -> Result<Option<u32>, TraceError> {
    if flags & FLAG_DOMAINS == 0 {
        return Ok(None);
    }
    if buf.remaining() < 4 {
        return Err(TraceError::Corrupt("domain id truncated".into()));
    }
    Ok(Some(buf.get_u32_le()))
}

fn empty_thread_trace(flags: u8) -> ThreadTrace {
    ThreadTrace {
        values: Vec::new(),
        sites: (flags & FLAG_SITES != 0).then(Vec::new),
        kinds: (flags & FLAG_KINDS != 0).then(Vec::new),
    }
}

/// Whether a chunk's value stream is zigzag-deltas (thread files) or plain
/// tid varints (the ST stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StreamKind {
    Deltas,
    Tids,
}

/// One decoded chunk: values (or raw tids) plus optional columns.
type DecodedChunk = (Vec<u64>, Option<Vec<u64>>, Option<Vec<u8>>);

/// Read one self-delimiting chunk. Bounds `nbytes` against the remaining
/// buffer and `count` against `nbytes` before allocating anything
/// (against `nbytes × `[`MAX_RLE_EXPANSION`] for compressed chunks), and
/// verifies the chunk consumed exactly the bytes it declared.
fn get_chunk(buf: &mut Bytes, flags: u8, kind: StreamKind) -> Result<DecodedChunk, TraceError> {
    if buf.remaining() < 4 {
        return Err(TraceError::Corrupt("chunk frame truncated".into()));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC_CHUNK {
        return Err(TraceError::Corrupt(format!(
            "bad chunk magic {magic:?} (expected RTCK)"
        )));
    }
    let nbytes = get_uvarint(buf)? as usize;
    if nbytes > buf.remaining() {
        return Err(TraceError::Corrupt(format!(
            "chunk length {nbytes} exceeds the {} remaining bytes",
            buf.remaining()
        )));
    }
    let compressed = flags & FLAG_COMPRESSED != 0;
    let before = buf.remaining();
    let count = get_uvarint(buf)? as usize;
    let max_count = if compressed {
        nbytes.saturating_mul(MAX_RLE_EXPANSION)
    } else {
        nbytes
    };
    if count > max_count {
        return Err(TraceError::Corrupt(format!(
            "chunk record count {count} exceeds chunk length {nbytes}"
        )));
    }
    let values = match (kind, compressed) {
        (StreamKind::Deltas, false) => get_delta_stream(buf, count)?,
        (StreamKind::Deltas | StreamKind::Tids, true) => get_rle_delta_stream(buf, count)?,
        (StreamKind::Tids, false) => {
            let mut tids = Vec::with_capacity(count.min(buf.remaining()));
            for _ in 0..count {
                tids.push(get_uvarint(buf)?);
            }
            tids
        }
    };
    let (sites, kinds) = if compressed {
        let sites = (flags & FLAG_SITES != 0)
            .then(|| get_rle_delta_stream(buf, count))
            .transpose()?;
        let kinds = (flags & FLAG_KINDS != 0)
            .then(|| get_rle_bytes(buf, count))
            .transpose()?;
        (sites, kinds)
    } else {
        get_columns(buf, count, flags)?
    };
    let consumed = before - buf.remaining();
    if consumed != nbytes {
        return Err(TraceError::Corrupt(format!(
            "chunk declared {nbytes} bytes but decoding consumed {consumed}"
        )));
    }
    Ok((values, sites, kinds))
}

/// Serialize the 11-byte header of a chunked per-thread stream. Written
/// once when a streaming writer opens the file; chunks follow.
#[must_use]
pub fn encode_thread_stream_header(scheme: Scheme, tid: u32, sites: bool, kinds: bool) -> Bytes {
    encode_thread_stream_header_opt(scheme, tid, None, sites, kinds, false)
}

/// Stream-header variant of [`encode_thread_trace_opt`]; `compress`
/// stamps [`FLAG_COMPRESSED`], committing every chunk of the stream to the
/// RLE payload layout.
pub(crate) fn encode_thread_stream_header_opt(
    scheme: Scheme,
    tid: u32,
    domain: Option<u32>,
    sites: bool,
    kinds: bool,
    compress: bool,
) -> Bytes {
    let mut buf = BytesMut::with_capacity(15);
    put_header(
        &mut buf,
        MAGIC_THREAD,
        scheme,
        flags_of(sites, kinds) | FLAG_CHUNKED | if compress { FLAG_COMPRESSED } else { 0 },
        tid,
        domain,
    );
    buf.freeze()
}

/// Serialize the 11-byte header of a chunked ST stream.
#[must_use]
pub fn encode_st_stream_header(sites: bool, kinds: bool) -> Bytes {
    encode_st_stream_header_opt(None, sites, kinds, false)
}

/// Stream-header variant of [`encode_st_trace_opt`].
pub(crate) fn encode_st_stream_header_opt(
    domain: Option<u32>,
    sites: bool,
    kinds: bool,
    compress: bool,
) -> Bytes {
    let mut buf = BytesMut::with_capacity(15);
    put_header(
        &mut buf,
        MAGIC_ST,
        Scheme::St,
        flags_of(sites, kinds) | FLAG_CHUNKED | if compress { FLAG_COMPRESSED } else { 0 },
        0,
        domain,
    );
    buf.freeze()
}

/// Serialize one self-delimiting chunk of per-thread records. The delta
/// base restarts at zero, so the chunk decodes independently of its
/// predecessors.
#[must_use]
pub fn encode_thread_chunk(values: &[u64], sites: Option<&[u64]>, kinds: Option<&[u8]>) -> Bytes {
    encode_thread_chunk_opt(values, sites, kinds, false)
}

/// [`encode_thread_chunk`] with an optional RLE compression stage: a
/// compressed payload is `count | values as RLE zigzag deltas | sites as
/// RLE zigzag deltas | kinds as RLE (run, byte) pairs`, and belongs in a
/// stream whose header carries [`FLAG_COMPRESSED`].
#[must_use]
pub fn encode_thread_chunk_opt(
    values: &[u64],
    sites: Option<&[u64]>,
    kinds: Option<&[u8]>,
    compress: bool,
) -> Bytes {
    let mut payload = BytesMut::with_capacity(8 + values.len() * 2);
    put_uvarint(&mut payload, values.len() as u64);
    if compress {
        put_rle_delta_stream(&mut payload, values);
        put_compressed_columns(&mut payload, sites, kinds);
    } else {
        put_delta_stream(&mut payload, values);
        put_column_slices(&mut payload, values.len(), sites, kinds);
    }
    frame_chunk(&payload)
}

/// Serialize one self-delimiting chunk of the shared ST stream.
#[must_use]
pub fn encode_st_chunk(tids: &[u32], sites: Option<&[u64]>, kinds: Option<&[u8]>) -> Bytes {
    encode_st_chunk_opt(tids, sites, kinds, false)
}

/// [`encode_st_chunk`] with the optional RLE compression stage; the tid
/// stream compresses as RLE zigzag deltas (runs of one thread's
/// consecutive gate passages collapse to one pair).
#[must_use]
pub fn encode_st_chunk_opt(
    tids: &[u32],
    sites: Option<&[u64]>,
    kinds: Option<&[u8]>,
    compress: bool,
) -> Bytes {
    let mut payload = BytesMut::with_capacity(8 + tids.len() * 2);
    put_uvarint(&mut payload, tids.len() as u64);
    if compress {
        let wide: Vec<u64> = tids.iter().map(|&t| u64::from(t)).collect();
        put_rle_delta_stream(&mut payload, &wide);
        put_compressed_columns(&mut payload, sites, kinds);
    } else {
        for &t in tids {
            put_uvarint(&mut payload, u64::from(t));
        }
        put_column_slices(&mut payload, tids.len(), sites, kinds);
    }
    frame_chunk(&payload)
}

fn put_compressed_columns(buf: &mut BytesMut, sites: Option<&[u64]>, kinds: Option<&[u8]>) {
    if let Some(sites) = sites {
        put_rle_delta_stream(buf, sites);
    }
    if let Some(kinds) = kinds {
        put_rle_bytes(buf, kinds);
    }
}

fn put_column_slices(
    buf: &mut BytesMut,
    count: usize,
    sites: Option<&[u64]>,
    kinds: Option<&[u8]>,
) {
    if let Some(sites) = sites {
        debug_assert_eq!(sites.len(), count);
        for &s in sites {
            buf.put_u64_le(s);
        }
    }
    if let Some(kinds) = kinds {
        debug_assert_eq!(kinds.len(), count);
        buf.put_slice(kinds);
    }
}

fn frame_chunk(payload: &BytesMut) -> Bytes {
    let mut out = BytesMut::with_capacity(payload.len() + 14);
    out.put_slice(MAGIC_CHUNK);
    put_uvarint(&mut out, payload.len() as u64);
    out.extend_from_slice(payload);
    out.freeze()
}

/// Serialize the shared ST trace in the legacy (single-domain) layout.
#[must_use]
pub fn encode_st_trace(trace: &StTrace) -> Bytes {
    encode_st_trace_opt(trace, None)
}

/// ST variant of [`encode_thread_trace_opt`].
pub(crate) fn encode_st_trace_opt(trace: &StTrace, domain: Option<u32>) -> Bytes {
    let mut buf = BytesMut::with_capacity(20 + trace.tids.len() * 2);
    put_header(
        &mut buf,
        MAGIC_ST,
        Scheme::St,
        flags_of(trace.sites.is_some(), trace.kinds.is_some()),
        0,
        domain,
    );
    put_uvarint(&mut buf, trace.tids.len() as u64);
    for &t in &trace.tids {
        put_uvarint(&mut buf, u64::from(t));
    }
    put_columns(
        &mut buf,
        trace.tids.len(),
        trace.sites.as_ref(),
        trace.kinds.as_ref(),
    );
    buf.freeze()
}

/// Deserialize the shared ST trace.
pub fn decode_st_trace(bytes: &[u8]) -> Result<StTrace, TraceError> {
    Ok(decode_st_records(bytes)?.trace)
}

/// Chunk-aware deserialization of the shared ST record file.
pub fn decode_st_records(bytes: &[u8]) -> Result<DecodedSt, TraceError> {
    let mut buf = Bytes::copy_from_slice(bytes);
    check_header(&mut buf, MAGIC_ST)?;
    if buf.remaining() < 6 {
        return Err(TraceError::Corrupt("header truncated".into()));
    }
    let _scheme = buf.get_u8();
    let flags = buf.get_u8();
    let _tid = buf.get_u32_le();
    let domain = get_domain(&mut buf, flags)?;
    check_compressed_is_chunked(flags)?;
    let mut trace = StTrace {
        tids: Vec::new(),
        sites: (flags & FLAG_SITES != 0).then(Vec::new),
        kinds: (flags & FLAG_KINDS != 0).then(Vec::new),
    };
    let mut chunks = 0u64;
    if flags & FLAG_CHUNKED != 0 {
        while buf.has_remaining() {
            let (tids, sites, kinds) = get_chunk(&mut buf, flags, StreamKind::Tids)?;
            append_tids(&mut trace.tids, &tids)?;
            if let (Some(dst), Some(src)) = (trace.sites.as_mut(), sites) {
                dst.extend(src);
            }
            if let (Some(dst), Some(src)) = (trace.kinds.as_mut(), kinds) {
                dst.extend(src);
            }
            chunks += 1;
        }
    } else {
        let count = get_uvarint(&mut buf)? as usize;
        if count > buf.remaining() {
            return Err(TraceError::Corrupt(format!(
                "tid count {count} exceeds the {} remaining bytes",
                buf.remaining()
            )));
        }
        trace.tids.reserve(count);
        for _ in 0..count {
            let t = get_uvarint(&mut buf)?;
            append_tids(&mut trace.tids, &[t])?;
        }
        let (sites, kinds) = get_columns(&mut buf, count, flags)?;
        trace.sites = sites;
        trace.kinds = kinds;
    }
    Ok(DecodedSt {
        trace,
        domain,
        chunks,
    })
}

fn append_tids(dst: &mut Vec<u32>, raw: &[u64]) -> Result<(), TraceError> {
    for &t in raw {
        let t =
            u32::try_from(t).map_err(|_| TraceError::Corrupt(format!("tid {t} out of range")))?;
        dst.push(t);
    }
    Ok(())
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
    buf.put_u8(VERSION);
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
pub fn decode_plan(bytes: &[u8]) -> Result<DomainPlan, TraceError> {
    let mut buf = Bytes::copy_from_slice(bytes);
    check_header(&mut buf, MAGIC_PLAN)?;
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
    let count = get_uvarint(&mut buf)? as usize;
    // Every entry costs at least 9 bytes; bound before building the map.
    let need = count
        .checked_mul(9)
        .ok_or_else(|| TraceError::Corrupt("plan entry count overflows".into()))?;
    if need > buf.remaining() {
        return Err(TraceError::Corrupt(format!(
            "plan entry count {count} exceeds the {} remaining bytes",
            buf.remaining()
        )));
    }
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
    buf.put_u8(VERSION);
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
pub fn decode_edges(bytes: &[u8]) -> Result<Vec<CrossDomainEdge>, TraceError> {
    let mut buf = Bytes::copy_from_slice(bytes);
    check_header(&mut buf, MAGIC_EDGES)?;
    if !buf.has_remaining() {
        return Err(TraceError::Corrupt("edge header truncated".into()));
    }
    let _flags = buf.get_u8();
    let count = get_uvarint(&mut buf)? as usize;
    // Every edge costs at least 4 bytes (four varints).
    if count
        .checked_mul(4)
        .is_none_or(|need| need > buf.remaining())
    {
        return Err(TraceError::Corrupt(format!(
            "edge count {count} exceeds the {} remaining bytes",
            buf.remaining()
        )));
    }
    let get_u32 = |buf: &mut Bytes, what: &str| -> Result<u32, TraceError> {
        let v = get_uvarint(buf)?;
        u32::try_from(v).map_err(|_| TraceError::Corrupt(format!("edge {what} {v} out of range")))
    };
    let mut edges = Vec::with_capacity(count);
    for _ in 0..count {
        let domain = get_u32(&mut buf, "domain")?;
        let thread = get_u32(&mut buf, "thread")?;
        let seq = get_uvarint(&mut buf)?;
        let nwaits = get_uvarint(&mut buf)? as usize;
        if nwaits.checked_mul(2).is_none_or(|n| n > buf.remaining()) {
            return Err(TraceError::Corrupt(format!(
                "edge wait count {nwaits} exceeds the {} remaining bytes",
                buf.remaining()
            )));
        }
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

fn check_compressed_is_chunked(flags: u8) -> Result<(), TraceError> {
    if flags & FLAG_COMPRESSED != 0 && flags & FLAG_CHUNKED == 0 {
        return Err(TraceError::Corrupt(
            "compressed stream without FLAG_CHUNKED".into(),
        ));
    }
    Ok(())
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
    buf.put_u8(VERSION);
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
pub fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, TraceError> {
    let mut buf = Bytes::copy_from_slice(bytes);
    check_header(&mut buf, MAGIC_CHECKPOINT)?;
    if buf.remaining() < 6 {
        return Err(TraceError::Corrupt("checkpoint header truncated".into()));
    }
    let _flags = buf.get_u8();
    let trigger_code = buf.get_u8();
    let trigger = DumpTrigger::from_code(trigger_code)
        .ok_or_else(|| TraceError::Corrupt(format!("bad dump trigger code {trigger_code}")))?;
    let window = buf.get_u32_le();
    let get_counts = |buf: &mut Bytes, what: &str| -> Result<Vec<u64>, TraceError> {
        let n = get_uvarint(buf)? as usize;
        if n > buf.remaining() {
            return Err(TraceError::Corrupt(format!(
                "checkpoint {what} count {n} exceeds the {} remaining bytes",
                buf.remaining()
            )));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(get_uvarint(buf)?);
        }
        Ok(out)
    };
    let base = get_counts(&mut buf, "base")?;
    let floors = get_counts(&mut buf, "floor")?;
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

fn check_header(buf: &mut Bytes, magic: &[u8; 4]) -> Result<(), TraceError> {
    if buf.remaining() < 6 {
        return Err(TraceError::Corrupt("file shorter than header".into()));
    }
    let mut found = [0u8; 4];
    buf.copy_to_slice(&mut found);
    if &found != magic {
        return Err(TraceError::BadMagic { found });
    }
    let version = buf.get_u8();
    if version != VERSION {
        return Err(TraceError::BadVersion(version));
    }
    Ok(())
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
        put_delta_stream(&mut buf, &values);
        let mut b = buf.freeze();
        assert_eq!(get_delta_stream(&mut b, values.len()).unwrap(), values);
    }

    #[test]
    fn monotone_clock_stream_is_compact() {
        // Per-thread DC clock streams increase with small strides: each
        // delta should cost ~1 byte.
        let values: Vec<u64> = (0..1000u64).map(|i| i * 3).collect();
        let mut buf = BytesMut::new();
        put_delta_stream(&mut buf, &values);
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
        let (back, scheme, tid) = decode_thread_trace(&bytes).unwrap();
        assert_eq!(back, t);
        assert_eq!(scheme, Scheme::De);
        assert_eq!(tid, 7);
    }

    #[test]
    fn thread_trace_roundtrip_bare() {
        let t = ThreadTrace {
            values: vec![3, 1, 2],
            sites: None,
            kinds: None,
        };
        let bytes = encode_thread_trace(&t, Scheme::Dc, 0);
        let (back, _, _) = decode_thread_trace(&bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn st_trace_roundtrip() {
        let t = StTrace {
            tids: vec![2, 0, 1, 1, 2],
            sites: Some(vec![9, 9, 9, 9, 9]),
            kinds: Some(vec![3, 3, 3, 3, 3]),
        };
        let bytes = encode_st_trace(&t);
        assert_eq!(decode_st_trace(&bytes).unwrap(), t);
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let t = ThreadTrace::default();
        let bytes = encode_thread_trace(&t, Scheme::Dc, 0);
        let mut corrupted = bytes.to_vec();
        corrupted[0] = b'X';
        assert!(matches!(
            decode_thread_trace(&corrupted),
            Err(TraceError::BadMagic { .. })
        ));
        let mut wrong_version = bytes.to_vec();
        wrong_version[4] = 99;
        assert!(matches!(
            decode_thread_trace(&wrong_version),
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
        assert!(decode_thread_trace(cut).is_err());
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
            assert!(decode_thread_trace(cut).is_err(), "len {len}");
            let st = encode_st_trace(&StTrace {
                tids: vec![0, 1],
                sites: None,
                kinds: None,
            });
            let cut = &st[..len.min(st.len())];
            assert!(decode_st_trace(cut).is_err(), "st len {len}");
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
        let err = decode_thread_trace(&buf.freeze()).unwrap_err();
        assert!(matches!(err, TraceError::Corrupt(_)), "{err}");

        let mut buf = BytesMut::new();
        buf.put_slice(b"RTST");
        buf.put_u8(1);
        buf.put_u8(Scheme::St.code());
        buf.put_u8(0);
        buf.put_u32_le(0);
        put_uvarint(&mut buf, u64::MAX / 2);
        buf.put_u8(0);
        let err = decode_st_trace(&buf.freeze()).unwrap_err();
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
        let mut out =
            encode_thread_stream_header(scheme, tid, trace.sites.is_some(), trace.kinds.is_some())
                .to_vec();
        let mut at = 0usize;
        for &len in splits {
            let end = (at + len).min(trace.values.len());
            if end == at {
                continue;
            }
            out.extend_from_slice(&encode_thread_chunk(
                &trace.values[at..end],
                trace.sites.as_ref().map(|s| &s[at..end]),
                trace.kinds.as_ref().map(|k| &k[at..end]),
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
        let bytes = encode_thread_stream_header(Scheme::Dc, 2, true, true);
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
        let mut bytes = encode_st_stream_header(true, true).to_vec();
        for range in [0..3usize, 3..7] {
            bytes.extend_from_slice(&encode_st_chunk(
                &t.tids[range.clone()],
                Some(&t.sites.as_ref().unwrap()[range.clone()]),
                Some(&t.kinds.as_ref().unwrap()[range]),
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
        let mut bytes = encode_thread_stream_header(Scheme::Dc, 0, false, false).to_vec();
        bytes.extend_from_slice(b"RTCK");
        let mut len = BytesMut::new();
        put_uvarint(&mut len, 1_000_000);
        bytes.extend_from_slice(&len);
        bytes.push(0);
        assert!(decode_thread_records(&bytes).is_err());
    }

    #[test]
    fn legacy_layout_bytes_are_pinned() {
        // Golden bytes: the single-domain encoding must stay byte-identical
        // to the pre-domain format so old traces and new D = 1 traces are
        // interchangeable. This test IS the format contract — if it fails,
        // back-compat broke.
        let t = ThreadTrace {
            values: vec![0, 1, 3],
            sites: None,
            kinds: None,
        };
        let bytes = encode_thread_trace(&t, Scheme::Dc, 2);
        let expected: &[u8] = &[
            b'R', b'T', b'R', b'C', // magic
            1,    // version
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
        let bytes = encode_st_trace(&st);
        let expected: &[u8] = &[
            b'R', b'T', b'S', b'T', // magic
            1, 0, 0, // version, scheme st = 0, flags
            0, 0, 0, 0, // tid u32le (always 0 for the shared stream)
            2, // count
            1, 0, // tids
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
            decode_st_records(&encode_st_trace(&st)).unwrap().domain,
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
        bytes.extend_from_slice(&encode_thread_chunk(&t.values[..2], None, None));
        bytes.extend_from_slice(&encode_thread_chunk(&t.values[2..], None, None));
        let d = decode_thread_records(&bytes).unwrap();
        assert_eq!(d.trace, t);
        assert_eq!((d.tid, d.domain, d.chunks), (1, Some(3), 2));

        let mut bytes = encode_st_stream_header_opt(Some(7), false, false, false).to_vec();
        bytes.extend_from_slice(&encode_st_chunk(&[0, 1], None, None));
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
        assert!(decode_st_trace(&buf.freeze()).is_err());
    }

    #[test]
    fn rle_delta_stream_roundtrip_and_compression() {
        // Constant stride collapses to one (run, delta) pair per stream.
        let values: Vec<u64> = (0..1000u64).collect();
        let mut buf = BytesMut::new();
        put_rle_delta_stream(&mut buf, &values);
        assert!(buf.len() <= 6, "1000 unit strides in {} bytes", buf.len());
        let mut b = buf.freeze();
        assert_eq!(get_rle_delta_stream(&mut b, values.len()).unwrap(), values);

        // Irregular streams still roundtrip.
        let values = vec![5u64, 5, 9, 2, 100, 0, u32::MAX as u64];
        let mut buf = BytesMut::new();
        put_rle_delta_stream(&mut buf, &values);
        let mut b = buf.freeze();
        assert_eq!(get_rle_delta_stream(&mut b, values.len()).unwrap(), values);
    }

    #[test]
    fn rle_decoder_rejects_bad_runs() {
        // A zero run length can never make progress.
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, 0);
        put_uvarint(&mut buf, 2);
        assert!(get_rle_delta_stream(&mut buf.freeze(), 3).is_err());
        // A run overshooting the expected count is corrupt, not truncated.
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, 9);
        put_uvarint(&mut buf, 2);
        assert!(get_rle_delta_stream(&mut buf.freeze(), 3).is_err());
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, 9);
        assert!(get_rle_bytes(&mut buf.freeze(), 3).is_err());
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
        // epoch column plus heavily repeated sites/kinds.
        let values: Vec<u64> = (0..4096u64).map(|i| i / 64).collect();
        let sites: Vec<u64> = vec![0x900; 4096];
        let kinds: Vec<u8> = vec![1; 4096];
        let plain = encode_thread_chunk_opt(&values, Some(&sites), Some(&kinds), false);
        let packed = encode_thread_chunk_opt(&values, Some(&sites), Some(&kinds), true);
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
    fn uncompressed_encoders_are_byte_identical_to_the_legacy_path() {
        // REOMP_COMPRESS off must not perturb the on-disk format: the
        // golden-bytes pins elsewhere depend on it, and this is the local
        // witness.
        let values = [7u64, 9, 12];
        let sites = [1u64, 2, 3];
        assert_eq!(
            encode_thread_chunk_opt(&values, Some(&sites), None, false),
            encode_thread_chunk(&values, Some(&sites), None),
        );
        assert_eq!(
            encode_thread_stream_header_opt(Scheme::De, 2, None, true, false, false),
            encode_thread_stream_header(Scheme::De, 2, true, false),
        );
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
