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
use bytes::{Buf, BytesMut};
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

/// Decode one rank's wildcard-receive stream. The bytes are outside
/// input: a count the bytes cannot back is not reserved up front, and a
/// run longer than the events left is rejected.
pub fn decode_events(mut buf: &[u8]) -> Result<Vec<RecvEvent>, TraceError> {
    let count = get_uvarint(&mut buf)?;
    let count = usize::try_from(count)
        .map_err(|_| TraceError::Corrupt(format!("event count {count} out of range")))?;
    // A run costs at least three bytes; a long run grows the vector as it
    // decodes instead.
    let mut out = Vec::with_capacity(count.min(buf.remaining() / 3));
    let (mut prev_src, mut prev_tag) = (0i64, 0i64);
    while out.len() < count {
        let left = count - out.len();
        let run_len = get_uvarint(&mut buf)?;
        let run_len = usize::try_from(run_len)
            .ok()
            .filter(|n| (1..=left).contains(n))
            .ok_or_else(|| {
                TraceError::Corrupt(format!("bad run of {run_len} with {left} events to go"))
            })?;
        let ds = unzigzag(get_uvarint(&mut buf)?);
        let dt = unzigzag(get_uvarint(&mut buf)?);
        for _ in 0..run_len {
            let (Some(s), Some(t)) = (prev_src.checked_add(ds), prev_tag.checked_add(dt)) else {
                return Err(TraceError::Corrupt(format!(
                    "delta ({ds}, {dt}) overflows ({prev_src}, {prev_tag})"
                )));
            };
            (prev_src, prev_tag) = (s, t);
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

    #[test]
    fn forged_count_and_runs_are_corrupt() {
        // A 2^62 count followed by one well-formed run: the reservation is
        // bounded by the bytes, and the stream ends short of the count.
        let mut huge = BytesMut::new();
        put_uvarint(&mut huge, 1 << 62);
        huge.extend_from_slice(&[1, 2, 0]);
        // A run of 5 with 2 events to go, and a run of none.
        for bytes in [&huge[..], &[2, 5, 2, 0], &[2, 0, 2, 0]] {
            let got = decode_events(bytes);
            assert!(
                matches!(got, Err(TraceError::Corrupt(_))),
                "{bytes:?}: {got:?}"
            );
        }
        assert_eq!(
            decode_events(&[2, 2, 2, 0]).unwrap(),
            vec![ev(1, 0), ev(2, 0)]
        );
    }

    #[test]
    fn forged_delta_overflow_is_corrupt() {
        // Event (5, 0), then a delta of i64::MAX on the source: the sum
        // overflows i64 before it could be range-checked as a u32.
        let mut forged = BytesMut::new();
        for v in [2, 1, 10, 0, 1, u64::MAX - 1, 0] {
            put_uvarint(&mut forged, v);
        }
        // The same on the tag. (A decoded field is never negative, so the
        // most negative delta cannot overflow.)
        let mut tag = BytesMut::new();
        for v in [2, 1, 0, 10, 1, 0, u64::MAX - 1] {
            put_uvarint(&mut tag, v);
        }
        for bytes in [&forged[..], &tag[..]] {
            let got = decode_events(bytes);
            assert!(
                matches!(got, Err(TraceError::Corrupt(_))),
                "{bytes:?}: {got:?}"
            );
        }
    }

    #[test]
    fn forged_stream_fails_load_dir_as_corrupt() {
        use crate::session::MpiTrace;
        let trace = MpiTrace::single(vec![vec![ev(1, 0), ev(2, 0)]], vec![vec![]]);
        let dir = std::env::temp_dir().join(format!("rmpi-forged-stream-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        trace.save_dir(&dir).unwrap();
        assert_eq!(MpiTrace::load_dir(&dir).unwrap(), trace);
        std::fs::write(dir.join("rank_0.rmpi"), [2, 5, 2, 0]).unwrap();
        let got = MpiTrace::load_dir(&dir);
        assert!(matches!(got, Err(TraceError::Corrupt(_))), "{got:?}");
        std::fs::remove_dir_all(&dir).unwrap();
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
