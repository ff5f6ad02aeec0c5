//! Property tests for the chunked record-file codec: a trace encoded as a
//! chunked stream with *arbitrary* chunk splits must decode to exactly the
//! same trace as the one-shot encoding, and the streaming store must load
//! the same bundle the one-shot store saves.

use proptest::collection::vec;
use proptest::prelude::*;
use reomp::core::codec;
use reomp::core::store::StreamingTraceStore;
use reomp::core::trace::{StTrace, ThreadTrace};
use reomp::{MemStore, Scheme, TraceBundle, TraceStore};

/// Build a thread trace from raw (value, site, kind) triples. Kind codes
/// are drawn from the valid 0..7 range so bundle validation accepts them.
fn thread_trace(records: &[(u64, u64, u8)], with_cols: bool) -> ThreadTrace {
    ThreadTrace {
        values: records.iter().map(|r| r.0).collect(),
        sites: with_cols.then(|| records.iter().map(|r| r.1).collect()),
        kinds: with_cols.then(|| records.iter().map(|r| r.2).collect()),
    }
}

/// Encode `trace` as a chunked stream, cutting chunks at the given split
/// lengths (cycled until the trace is exhausted).
fn encode_chunked(trace: &ThreadTrace, scheme: Scheme, tid: u32, splits: &[usize]) -> Vec<u8> {
    encode_chunked_opt(trace, scheme, tid, splits, false)
}

/// [`encode_chunked`], with the value column run-length coded on request.
fn encode_chunked_opt(
    trace: &ThreadTrace,
    scheme: Scheme,
    tid: u32,
    splits: &[usize],
    compress: bool,
) -> Vec<u8> {
    let (sites, kinds) = (trace.sites.as_deref(), trace.kinds.as_deref());
    let mut out = codec::encode_thread_stream_header_opt(
        scheme,
        tid,
        None,
        sites.is_some(),
        kinds.is_some(),
        compress,
    )
    .to_vec();
    for (at, end) in cuts(trace.values.len(), splits) {
        out.extend_from_slice(&codec::encode_thread_chunk_opt(
            &trace.values[at..end],
            sites.map(|s| &s[at..end]),
            kinds.map(|k| &k[at..end]),
            compress,
        ));
    }
    out
}

/// The ST counterpart of [`encode_chunked_opt`].
fn encode_st_chunked(trace: &StTrace, splits: &[usize], compress: bool) -> Vec<u8> {
    let (sites, kinds) = (trace.sites.as_deref(), trace.kinds.as_deref());
    let mut out =
        codec::encode_st_stream_header_opt(None, sites.is_some(), kinds.is_some(), compress)
            .to_vec();
    for (at, end) in cuts(trace.tids.len(), splits) {
        out.extend_from_slice(&codec::encode_st_chunk_opt(
            &trace.tids[at..end],
            sites.map(|s| &s[at..end]),
            kinds.map(|k| &k[at..end]),
            compress,
        ));
    }
    out
}

/// `0..len` cut at the given split lengths, cycled until it is exhausted.
fn cuts(len: usize, splits: &[usize]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut split = splits.iter().cycle();
    let mut at = 0;
    while at < len {
        let end = (at + *split.next().expect("cycled iterator")).min(len);
        out.push((at, end));
        at = end;
    }
    out
}

/// Assemble a valid single-domain bundle from per-thread record triples —
/// a DE bundle by default, or an ST bundle (shared stream, empty
/// per-thread traces) when `st_run` is set.
fn build_bundle(per_thread: &[Vec<(u64, u64, u8)>], with_cols: bool, st_run: bool) -> TraceBundle {
    let nthreads = per_thread.len() as u32;
    let scheme = if st_run { Scheme::St } else { Scheme::De };
    let threads: Vec<ThreadTrace> = if st_run {
        // ST bundles keep empty per-thread traces (columns mirror the
        // bundle's validation mode, like session-assembled bundles).
        (0..nthreads)
            .map(|_| thread_trace(&[], with_cols))
            .collect()
    } else {
        per_thread
            .iter()
            .map(|r| thread_trace(r, with_cols))
            .collect()
    };
    let st = st_run.then(|| {
        let flat: Vec<(u64, u64, u8)> = per_thread.concat();
        StTrace {
            tids: flat
                .iter()
                .enumerate()
                .map(|(i, _)| i as u32 % nthreads)
                .collect(),
            sites: with_cols.then(|| flat.iter().map(|r| r.1).collect()),
            kinds: with_cols.then(|| flat.iter().map(|r| r.2).collect()),
        }
    });
    TraceBundle {
        plan: None,
        edges: vec![],
        checkpoint: None,
        scheme,
        nthreads,
        domains: 1,
        threads,
        st: st.into_iter().collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_chunk_splits_decode_like_one_shot(
        records in vec((0u64..1_000_000, 0u64..u64::MAX, 0u8..7), 0..200),
        with_cols in (0u8..2).prop_map(|b| b == 1),
        splits in vec(1usize..17, 1..24),
        scheme_idx in 0usize..3,
        tid in 0u32..64,
    ) {
        let scheme = Scheme::ALL[scheme_idx];
        let trace = thread_trace(&records, with_cols);

        // Reference: the one-shot encoding.
        let one_shot = codec::encode_thread_trace(&trace, scheme, tid);
        let reference = codec::decode_thread_records(&one_shot).unwrap();
        prop_assert_eq!(&reference.trace, &trace);
        prop_assert_eq!(reference.chunks, 0);
        prop_assert_eq!(reference.version, 2);

        // Chunked with arbitrary splits: identical trace, same header.
        let chunked = encode_chunked(&trace, scheme, tid, &splits);
        let decoded = codec::decode_thread_records(&chunked).unwrap();
        prop_assert_eq!(&decoded.trace, &trace);
        prop_assert_eq!(decoded.scheme, scheme);
        prop_assert_eq!(decoded.tid, tid);
        prop_assert_eq!(decoded.chunks, cuts(trace.values.len(), &splits).len() as u64);
    }

    #[test]
    fn arbitrary_columns_roundtrip_in_every_layout(
        // Values from three regimes (constant stride, small jitter, anywhere
        // in u64), so that runs, literals and wide deltas all occur; sites
        // from a small pool or anywhere; every kind code.
        records in vec((0u64..3, 0u64..u64::MAX, 0u64..u64::MAX, 0u8..7), 0..160),
        pool in vec(0u64..u64::MAX, 1..6),
        columns in 0u8..4,
        splits in vec(1usize..40, 1..12),
        scheme_idx in 0usize..3,
    ) {
        let mut clock = 0u64;
        let values: Vec<u64> = records.iter().map(|&(regime, raw, _, _)| {
            clock = match regime {
                0 => clock.wrapping_add(1),
                1 => clock.wrapping_add(raw % 5),
                _ => raw,
            };
            clock
        }).collect();
        let sites = (columns & 1 != 0).then(|| records.iter().map(|&(regime, _, raw, _)| {
            if regime == 2 { raw } else { pool[raw as usize % pool.len()] }
        }).collect::<Vec<u64>>());
        let kinds = (columns & 2 != 0).then(|| records.iter().map(|r| r.3).collect::<Vec<u8>>());
        let scheme = Scheme::ALL[scheme_idx];

        // Sites without kinds and kinds without sites included: each
        // layout of a per-thread stream decodes to the trace it was given,
        // so chunked ≡ chunked + compress ≡ one-shot after decode.
        let trace = ThreadTrace { values, sites: sites.clone(), kinds: kinds.clone() };
        let one_shot = codec::decode_thread_records(&codec::encode_thread_trace(&trace, scheme, 3));
        prop_assert_eq!(&one_shot.unwrap().trace, &trace);
        for compress in [false, true] {
            let file = encode_chunked_opt(&trace, scheme, 3, &splits, compress);
            let decoded = codec::decode_thread_records(&file).unwrap();
            prop_assert_eq!(&decoded.trace, &trace);
            prop_assert_eq!((decoded.scheme, decoded.tid), (scheme, 3));
            let labels = decoded.max_labels as usize;
            prop_assert!(labels <= splits.iter().copied().max().unwrap_or(0));
            prop_assert_eq!(labels == 0, columns == 0 || trace.values.is_empty());
        }

        // The same columns as the shared ST stream, tids in place of clocks.
        let tids = records.iter().map(|r| (r.1 % 5) as u32 * u32::from(r.0 != 0)).collect();
        let st = StTrace { tids, sites, kinds };
        let one_shot = codec::decode_st_records(&codec::encode_st_trace_opt(&st, None)).unwrap();
        prop_assert_eq!(&one_shot.trace, &st);
        for compress in [false, true] {
            let decoded = codec::decode_st_records(&encode_st_chunked(&st, &splits, compress));
            prop_assert_eq!(&decoded.unwrap().trace, &st);
        }
    }

    #[test]
    fn every_record_a_new_site_costs_at_most_12_bytes(
        first in 0u64..u64::MAX,
        count in 1usize..600,
        compress in (0u8..2).prop_map(|b| b == 1),
    ) {
        // The worst case for the label column: no label repeats, so every
        // record announces one — an index of up to 2 bytes here, 8 of site
        // and 1 of kind — after a 1-byte clock delta.
        let values: Vec<u64> = (0..count as u64).map(|i| 3 * i).collect();
        let sites: Vec<u64> = (0..count as u64)
            .map(|i| first.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            .collect();
        let kinds = vec![1u8; count];
        let chunk = codec::encode_thread_chunk_opt(&values, Some(&sites), Some(&kinds), compress);
        prop_assert!(chunk.len() <= 12 * count + 8, "{} B for {count} records", chunk.len());
        let trace = ThreadTrace { values, sites: Some(sites), kinds: Some(kinds) };
        let file = encode_chunked_opt(&trace, Scheme::Dc, 0, &[count], compress);
        let decoded = codec::decode_thread_records(&file).unwrap();
        prop_assert_eq!(&decoded.trace, &trace);
        prop_assert_eq!(decoded.max_labels, count as u64);
    }

    #[test]
    fn truncating_a_chunked_stream_never_panics(
        records in vec((0u64..100_000, 0u64..u64::MAX, 0u8..7), 1..60),
        splits in vec(1usize..9, 1..8),
        cut_frac in 0u32..1000,
    ) {
        let trace = thread_trace(&records, true);
        let chunked = encode_chunked(&trace, Scheme::De, 1, &splits);
        let cut = (chunked.len() as u64 * u64::from(cut_frac) / 1000) as usize;
        // Decoding any prefix must return cleanly: Ok for prefixes that end
        // exactly on a chunk boundary, Err(Corrupt/..) otherwise — never a
        // panic or an OOM-sized allocation.
        let _ = codec::decode_thread_records(&chunked[..cut]);
    }

    #[test]
    fn streaming_store_save_equals_one_shot_save(
        per_thread in vec(vec((0u64..10_000, 0u64..1 << 48, 0u8..7), 0..40), 1..5),
        with_cols in (0u8..2).prop_map(|b| b == 1),
        records_per_chunk in 1usize..17,
        st_run in (0u8..2).prop_map(|b| b == 1),
    ) {
        let bundle = build_bundle(&per_thread, with_cols, st_run);
        prop_assert!(bundle.validate().is_ok());

        let one_shot = MemStore::new();
        one_shot.save(&bundle).unwrap();
        let (reference, _) = one_shot.load().unwrap();

        let streaming = MemStore::new();
        let report = streaming.save_chunked(&bundle, records_per_chunk).unwrap();
        let (loaded, io) = streaming.load().unwrap();
        prop_assert_eq!(&loaded, &reference);
        prop_assert_eq!(&loaded, &bundle);
        prop_assert_eq!(io.chunks, report.chunks);
    }

    #[test]
    fn compressed_streaming_save_roundtrips(
        per_thread in vec(vec((0u64..10_000, 0u64..1 << 48, 0u8..7), 0..40), 1..5),
        with_cols in (0u8..2).prop_map(|b| b == 1),
        records_per_chunk in 1usize..17,
        st_run in (0u8..2).prop_map(|b| b == 1),
    ) {
        // The per-chunk RLE compression stage (REOMP_COMPRESS) must be
        // invisible to the loader: the compressed streaming save decodes
        // to exactly the bundle the plain save produces, for arbitrary
        // record contents and chunk sizes.
        let bundle = build_bundle(&per_thread, with_cols, st_run);
        prop_assert!(bundle.validate().is_ok());

        let plain = MemStore::new();
        plain.save_chunked(&bundle, records_per_chunk).unwrap();
        let (reference, _) = plain.load().unwrap();

        let compressed = MemStore::new();
        let report = compressed
            .save_chunked_opt(&bundle, records_per_chunk, true)
            .unwrap();
        let (loaded, io) = compressed.load().unwrap();
        prop_assert_eq!(&loaded, &reference);
        prop_assert_eq!(&loaded, &bundle);
        prop_assert_eq!(io.chunks, report.chunks);
    }
}
