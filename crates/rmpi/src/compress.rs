//! Trace compression in the spirit of ReMPI's *clock-delta compression*
//! (Sato et al., SC'15).
//!
//! ReMPI's insight: recorded message orders are highly regular — most
//! wildcard receives match the source the program "expects", so encoding
//! the *difference* from a predictable sequence plus run-length encoding
//! shrinks record files dramatically, which matters because record-file
//! I/O bounds the scalability of record-and-replay tools (paper §II-B).
//!
//! The format here: each `(src, tag)` pair stream is zigzag-delta encoded
//! against the previous record, then run-length encoded, then varint
//! packed. Regular patterns (round-robin neighbours, repeated sources)
//! collapse to a handful of bytes.

use crate::session::RecvEvent;
use bytes::{Buf, Bytes, BytesMut};
use reomp_core::codec::{get_uvarint, put_uvarint, unzigzag, zigzag};
use reomp_core::TraceError;

/// Encode one rank's wildcard-receive stream.
#[must_use]
pub fn encode_events(events: &[RecvEvent]) -> Vec<u8> {
    let mut buf = BytesMut::new();
    put_uvarint(&mut buf, events.len() as u64);

    // Delta each field against its predecessor, then RLE the delta pairs.
    let mut deltas: Vec<(u64, u64)> = Vec::with_capacity(events.len());
    let (mut prev_src, mut prev_tag) = (0i64, 0i64);
    for e in events {
        let ds = zigzag(i64::from(e.src) - prev_src);
        let dt = zigzag(i64::from(e.tag) - prev_tag);
        deltas.push((ds, dt));
        prev_src = i64::from(e.src);
        prev_tag = i64::from(e.tag);
    }

    for run in deltas.chunk_by(|a, b| a == b) {
        put_uvarint(&mut buf, run.len() as u64);
        put_uvarint(&mut buf, run[0].0);
        put_uvarint(&mut buf, run[0].1);
    }
    buf.to_vec()
}

/// Decode one rank's wildcard-receive stream.
pub fn decode_events(bytes: &[u8]) -> Result<Vec<RecvEvent>, TraceError> {
    let mut buf = Bytes::copy_from_slice(bytes);
    let count = get_uvarint(&mut buf)? as usize;
    let mut out = Vec::with_capacity(count);
    let (mut prev_src, mut prev_tag) = (0i64, 0i64);
    while out.len() < count {
        let run_len = get_uvarint(&mut buf)? as usize;
        if run_len == 0 {
            return Err(TraceError::Corrupt("zero-length RLE run".into()));
        }
        let ds = unzigzag(get_uvarint(&mut buf)?);
        let dt = unzigzag(get_uvarint(&mut buf)?);
        for _ in 0..run_len.min(count - out.len()) {
            prev_src += ds;
            prev_tag += dt;
            let src = u32::try_from(prev_src)
                .map_err(|_| TraceError::Corrupt(format!("src {prev_src} out of range")))?;
            let tag = u32::try_from(prev_tag)
                .map_err(|_| TraceError::Corrupt(format!("tag {prev_tag} out of range")))?;
            out.push(RecvEvent { src, tag });
        }
    }
    if buf.has_remaining() {
        return Err(TraceError::Corrupt(
            "trailing bytes after RLE stream".into(),
        ));
    }
    Ok(out)
}

#[cfg(test)]
use proptest::prelude::Strategy;

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(src: u32, tag: u32) -> RecvEvent {
        RecvEvent { src, tag }
    }

    #[test]
    fn roundtrip_empty_and_single() {
        assert_eq!(decode_events(&encode_events(&[])).unwrap(), vec![]);
        let one = vec![ev(5, 3)];
        assert_eq!(decode_events(&encode_events(&one)).unwrap(), one);
    }

    #[test]
    fn roundtrip_irregular_stream() {
        let events: Vec<RecvEvent> = (0..500)
            .map(|i| ev((i * 7919) % 13, (i * 104729) % 5))
            .collect();
        assert_eq!(decode_events(&encode_events(&events)).unwrap(), events);
    }

    #[test]
    fn repeated_source_compresses_to_constant_size() {
        // 10k receives all from rank 3, tag 0: one run.
        let events: Vec<RecvEvent> = std::iter::once(ev(3, 0))
            .chain((0..9_999).map(|_| ev(3, 0)))
            .collect();
        let bytes = encode_events(&events);
        assert!(
            bytes.len() < 32,
            "constant stream must collapse, got {} bytes",
            bytes.len()
        );
        assert_eq!(decode_events(&bytes).unwrap(), events);
    }

    #[test]
    fn round_robin_compresses_well() {
        // Sources 0,1,2,3,0,1,2,3,...: deltas cycle (1,1,1,-3), so RLE runs
        // stay short, but small varint deltas still beat the 8-byte raw
        // encoding by ~4x. (ReMPI's full CDC also exploits periodicity; we
        // keep the simpler delta+RLE and verify the raw-size win.)
        let events: Vec<RecvEvent> = (0..10_000u32).map(|i| ev(i % 4, 1)).collect();
        let bytes = encode_events(&events);
        let raw = events.len() * 8;
        assert!(
            bytes.len() * 4 <= raw,
            "round-robin must compress ≥4x vs raw ({} vs {raw} bytes)",
            bytes.len()
        );
        assert_eq!(decode_events(&bytes).unwrap(), events);
    }

    #[test]
    fn corrupt_streams_rejected() {
        let events = vec![ev(1, 1), ev(2, 2)];
        let mut bytes = encode_events(&events);
        bytes.push(0xff); // trailing garbage
        assert!(decode_events(&bytes).is_err());
        assert!(decode_events(&[]).is_err(), "missing count");
    }

    proptest::proptest! {
        #[test]
        fn roundtrip_random(events in proptest::collection::vec(
            (0u32..64, 0u32..8).prop_map(|(s, t)| RecvEvent { src: s, tag: t }),
            0..300,
        )) {
            let bytes = encode_events(&events);
            proptest::prop_assert_eq!(decode_events(&bytes).unwrap(), events);
        }
    }
}
