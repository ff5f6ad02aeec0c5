//! The codec's earlier writer and reader, kept as test oracles.
//!
//! * The per-record decoder the column decoder replaced, the oracle of
//!   `codec::tests::column_decoder_matches_the_per_record_reference`: it
//!   grows every column chunk by chunk and pushes each label's site and
//!   kind through the stream's `Option` columns, one record at a time. The
//!   column decoder must return the same trace, or `Corrupt` where this one
//!   does.
//! * The payload encoder the memoized label loop replaced, the oracle of
//!   `codec::tests::chunk_encoder_matches_the_probing_reference`: every
//!   label goes through the table's hash-and-probe, every index through
//!   the varint stage. The encoder must write the same bytes.

use super::{
    check_header, get_count, get_uvarint, put_uvarint, stage_uvarint, unzigzag, zigzag, Column,
    Stream, Value, FLAG_CHUNKED, FLAG_COMPRESSED, FLAG_DOMAINS, FLAG_KINDS, FLAG_SITES,
    MAGIC_CHUNK, MAGIC_ST, MAGIC_THREAD, MAX_RLE_EXPANSION, MIN_RUN, STAGE, VERSION, VERSION_1,
};
use super::{DecodedSt, DecodedThread};
use crate::error::TraceError;
use crate::session::Scheme;
use crate::site::AccessKind;
use crate::trace::{StTrace, ThreadTrace};
use bytes::{Buf, BufMut, BytesMut};

pub(super) fn decode_thread_records(
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

pub(super) fn decode_st_records(bytes: &[u8], max_records: u64) -> Result<DecodedSt, TraceError> {
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
        tid,
        domain,
        values: Vec::new(),
        sites: (flags & FLAG_SITES != 0).then(Vec::new),
        kinds: (flags & FLAG_KINDS != 0).then(Vec::new),
        chunks: 0,
        max_labels: 0,
    };
    if flags & FLAG_CHUNKED == 0 {
        get_payload(buf, flags, &mut s, max_records)?;
        return Ok(s);
    }
    while buf.has_remaining() {
        if !buf.starts_with(MAGIC_CHUNK) {
            return Err(TraceError::Corrupt("bad chunk frame".into()));
        }
        buf.advance(4);
        let nbytes = get_count(&mut buf, 1, "chunk byte")?;
        let (payload, rest) = buf.split_at(nbytes);
        get_payload(payload, flags, &mut s, max_records)?;
        buf = rest;
        s.chunks += 1;
    }
    Ok(s)
}

fn get_payload<T: Value>(
    mut buf: &[u8],
    flags: u8,
    s: &mut Stream<T>,
    max_records: u64,
) -> Result<(), TraceError> {
    let nbytes = buf.len();
    let v1 = s.version == VERSION_1;
    let values = match (flags & FLAG_COMPRESSED != 0, v1) {
        (false, _) => Column::Plain,
        (true, false) => Column::Groups,
        (true, true) => Column::Runs,
    };
    let count = get_uvarint(&mut buf)?;
    let expands = values != Column::Plain && (v1 || s.sites.is_none() && s.kinds.is_none());
    let bound = if expands {
        nbytes.saturating_mul(MAX_RLE_EXPANSION)
    } else {
        buf.len()
    };
    let room = max_records.saturating_sub(s.values.len() as u64);
    if count > room.min(bound as u64) {
        return Err(TraceError::Corrupt("record count".into()));
    }
    let count = count as usize;
    let exact = |left: &[u8]| match left.len() {
        0 => Ok(()),
        _ => Err(TraceError::Corrupt("payload length".into())),
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
            out.push(
                T::try_from(prev).map_err(|_| TraceError::Corrupt("tid out of range".into()))?,
            );
        }
        Ok(())
    })
}

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
            return Err(TraceError::Corrupt("label index".into()));
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

/// The column walk as it was before literal groups were handed on whole:
/// one `emit(1, element)` per literal.
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
        if len == 0 || len > left as u64 {
            return Err(TraceError::Corrupt("bad run".into()));
        }
        let len = len as usize;
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

/// The payload writer as it was: count, values, then each record's label
/// through [`LabelTable::find`] and the varint stage.
pub(super) fn put_payload<T: Value>(
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
        let mut group = |from: usize, to: usize, repeat: Option<u64>| {
            if from < to {
                put(((to - from) as u64) << 1 | u64::from(repeat.is_some()));
                match repeat {
                    Some(delta) => put(delta),
                    None => (from..to).for_each(|i| put(delta(i))),
                }
            }
        };
        let (mut unwritten, mut start, mut run_delta) = (0, 0, 0);
        for i in 0..=values.len() {
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

struct LabelTable {
    slots: Vec<(u64, u8, u32)>,
    len: u32,
}

impl LabelTable {
    fn find(&self, site: u64, kind: u8) -> usize {
        let mask = self.slots.len() - 1;
        let hash = (site ^ u64::from(kind).rotate_right(8)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut at = (hash >> (63 - mask.trailing_ones())) as usize >> 1;
        while self.slots[at].2 != 0 && (self.slots[at].0, self.slots[at].1) != (site, kind) {
            at = (at + 1) & mask;
        }
        at
    }

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
