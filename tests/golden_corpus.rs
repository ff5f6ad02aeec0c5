//! The committed trace corpora, read back by this build.
//!
//! `tests/golden/` is the **version 1** corpus: six directories written by
//! an older build (8-byte site and 1-byte kind per record) and never
//! regenerated — nothing writes that layout any more, so these files are
//! what keeps its decoder honest. `tests/golden_v2/` is what
//! `examples/golden_fixtures` writes today from the same generator inputs.
//! A fixture's certificate digests the in-memory bundle, not the bytes on
//! disk, so content that survives a format change keeps its certificate:
//! both corpora, and a version 1 fixture saved again by this build, must
//! carry the strings pinned here. The strings are `reomp-cert-v3`: the word
//! digest (`verify::Digest`) over the same canonical fields the byte-wise
//! FNV-1a of `reomp-cert-v1` hashed, each column through four lanes
//! (`Digest::column`; `reomp-cert-v2` mixed it on one chain). Each pin
//! changes only with the certificate's canonical serialization or digest
//! function.

use reomp::core::codec;
use reomp::core::verify::Tier;
use reomp::{DirStore, MpiTrace, MpiVerifier, TraceBundle, TraceError, TraceStore, Verifier};
use std::path::{Path, PathBuf};

/// `(fixture, certificate)` of every core fixture.
const CERTIFICATES: [(&str, &str); 5] = [
    (
        "st_d1",
        "reomp-cert-v3 4bd8dac070512bb6 scheme=st threads=2 domains=1 records=54 edges=0",
    ),
    (
        "dc_d1",
        "reomp-cert-v3 f6e46c48297230a1 scheme=dc threads=2 domains=1 records=54 edges=0",
    ),
    (
        "de_d1",
        "reomp-cert-v3 2592b05ab8355246 scheme=de threads=2 domains=1 records=54 edges=0",
    ),
    (
        "dc_planned",
        "reomp-cert-v3 acb43f66781eedde scheme=dc threads=2 domains=4 records=54 edges=6",
    ),
    (
        "flight_dc",
        "reomp-cert-v3 077e307068a14bc0 scheme=dc threads=2 domains=1 records=14 edges=0 windowed",
    ),
];

/// The certificate of the `rmpi` fixture, minted by `MpiVerifier` from the
/// same digest.
const RMPI_CERTIFICATE: &str =
    "reomp-cert-v3 90c278c0af37c0bb mpi ranks=2 domains=1 events=4 waitany=3";

fn corpus(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join(name)
}

/// Load `dir`, require a clean verification, and return the bundle with
/// its certificate.
fn load_verified(dir: &Path) -> (TraceBundle, String) {
    let (bundle, _) = DirStore::new(dir)
        .load()
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    let report = Verifier::new().verify(&bundle);
    assert!(report.is_clean(), "{}: {report}", dir.display());
    let certificate = report.certificate.expect("clean ⇒ certificate");
    (bundle, certificate.to_string())
}

/// The format version stamped on every record stream of `dir`.
fn stream_versions(dir: &Path) -> Vec<u8> {
    let mut versions = Vec::new();
    for entry in std::fs::read_dir(dir).expect("read fixture dir") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let bytes = std::fs::read(&path).expect("read fixture file");
        if name.starts_with("thread_") {
            versions.push(codec::decode_thread_records(&bytes).unwrap().version);
        } else if name.starts_with("st.") {
            versions.push(codec::decode_st_records(&bytes).unwrap().version);
        }
    }
    assert!(!versions.is_empty(), "{}: no record stream", dir.display());
    versions
}

#[test]
fn v1_corpus_loads_verifies_and_keeps_its_certificates_when_saved_as_v2() {
    for (name, pinned) in CERTIFICATES {
        let dir = corpus("golden").join(name);
        assert!(stream_versions(&dir).iter().all(|&v| v == 1), "{name}");
        let (bundle, certificate) = load_verified(&dir);
        assert_eq!(certificate, pinned, "{name}");

        let resaved =
            std::env::temp_dir().join(format!("reomp-corpus-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&resaved);
        DirStore::new(&resaved).save(&bundle).expect("save as v2");
        assert!(stream_versions(&resaved).iter().all(|&v| v == 2), "{name}");
        let (again, certificate) = load_verified(&resaved);
        let _ = std::fs::remove_dir_all(&resaved);
        assert_eq!(again, bundle, "{name}: content changed across formats");
        assert_eq!(certificate, pinned, "{name}: certificate moved");
    }
}

#[test]
fn v2_corpus_carries_the_certificates_of_the_v1_fixtures_of_the_same_name() {
    for (name, pinned) in CERTIFICATES {
        let dir = corpus("golden_v2").join(name);
        assert!(stream_versions(&dir).iter().all(|&v| v == 2), "{name}");
        let (bundle, certificate) = load_verified(&dir);
        assert_eq!(certificate, pinned, "{name}");
        let (v1, _) = load_verified(&corpus("golden").join(name));
        assert_eq!(bundle, v1, "{name}: the corpora hold different records");
    }
}

#[test]
fn rmpi_fixture_carries_its_certificate_in_both_corpora() {
    let mut traces = Vec::new();
    for name in ["golden", "golden_v2"] {
        let dir = corpus(name).join("rmpi");
        let trace = MpiTrace::load_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
        let report = MpiVerifier::new().verify(&trace);
        assert!(report.is_clean(), "{}: {report}", dir.display());
        let certificate = report.certificate.expect("clean ⇒ certificate");
        assert_eq!(certificate.to_string(), RMPI_CERTIFICATE, "{name}");
        traces.push(trace);
    }
    assert_eq!(traces[0], traces[1], "the corpora hold different events");
}

#[test]
fn forged_checkpoint_base_is_corrupt_not_a_panic() {
    // `flight_dc` with its checkpoint's clock base rewritten to the
    // largest varint: `base + records` wraps, which the loader and the
    // verifier must report as corruption, in debug and release alike.
    let fixture = corpus("golden_v2").join("flight_dc");
    let forged = std::env::temp_dir().join(format!("reomp-forged-base-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&forged);
    std::fs::create_dir_all(&forged).expect("create forged dir");
    for entry in std::fs::read_dir(&fixture).expect("read fixture dir") {
        let path = entry.expect("dir entry").path();
        std::fs::copy(&path, forged.join(path.file_name().unwrap())).expect("copy fixture");
    }
    let section = forged.join("checkpoint.rtrc");
    let mut checkpoint =
        codec::decode_checkpoint(&std::fs::read(&section).expect("read checkpoint"))
            .expect("fixture checkpoint decodes");
    checkpoint.base = vec![u64::MAX];
    std::fs::write(&section, codec::encode_checkpoint(&checkpoint)).expect("write forged base");

    let loaded = DirStore::new(&forged).load();
    let _ = std::fs::remove_dir_all(&forged);
    match loaded {
        Err(TraceError::Corrupt(msg)) => assert!(msg.contains("overflows the clock"), "{msg}"),
        other => panic!("forged base loaded as {other:?}"),
    }

    // The same bundle handed to the verifier directly.
    let (mut bundle, _) = load_verified(&fixture);
    bundle.checkpoint.as_mut().expect("a windowed fixture").base = vec![u64::MAX];
    let report = Verifier::new().verify(&bundle);
    assert_eq!(report.worst_tier(), Some(Tier::Structural), "{report}");
    assert!(report.certificate.is_none());
}
