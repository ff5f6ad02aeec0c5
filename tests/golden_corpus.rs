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
//! carry the strings pinned here.

use reomp::core::codec;
use reomp::{DirStore, TraceBundle, TraceStore, Verifier};
use std::path::{Path, PathBuf};

/// `(fixture, certificate)` of every core fixture.
const CERTIFICATES: [(&str, &str); 5] = [
    (
        "st_d1",
        "reomp-cert-v1 fea1821b1d6a518b scheme=st threads=2 domains=1 records=54 edges=0",
    ),
    (
        "dc_d1",
        "reomp-cert-v1 e1d4d25d0bad5fb4 scheme=dc threads=2 domains=1 records=54 edges=0",
    ),
    (
        "de_d1",
        "reomp-cert-v1 a0eafcf2b73e09b9 scheme=de threads=2 domains=1 records=54 edges=0",
    ),
    (
        "dc_planned",
        "reomp-cert-v1 40e801e722bea407 scheme=dc threads=2 domains=4 records=54 edges=6",
    ),
    (
        "flight_dc",
        "reomp-cert-v1 5e6b4d2d915dbe17 scheme=dc threads=2 domains=1 records=14 edges=0 windowed",
    ),
];

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
