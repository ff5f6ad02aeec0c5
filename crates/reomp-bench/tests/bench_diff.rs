//! `bench-diff` against a committed ledger: a ledger compared with itself
//! has no regression, and a copy whose every metric is 30 % larger is
//! flagged on every lower-is-better metric (all bounds are below 30 %).

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Run `bench-diff parent change BENCHMARK.json`: (exit code, stdout).
fn diff(parent: &Path, change: &Path) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench-diff"))
        .arg(parent)
        .arg(change)
        .arg(repo().join("BENCHMARK.json"))
        .output()
        .expect("run bench-diff");
    let code = out.status.code().expect("exit code");
    (code, String::from_utf8(out.stdout).expect("utf-8 output"))
}

/// `ledger` with every `"value": x` replaced by `x * factor`.
fn scaled(ledger: &str, factor: f64) -> String {
    let key = "\"value\": ";
    let mut out = String::new();
    let mut rest = ledger;
    while let Some(at) = rest.find(key) {
        let (head, tail) = rest.split_at(at + key.len());
        let end = tail.find([',', '}']).expect("a number ends the value");
        let value: f64 = tail[..end].trim().parse().expect("numeric value");
        out.push_str(head);
        out.push_str(&(value * factor).to_string());
        rest = &tail[end..];
    }
    out + rest
}

#[test]
fn a_ledger_against_itself_has_no_regression() {
    let ledger = repo().join("BENCH_29.json");
    let (code, stdout) = diff(&ledger, &ledger);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("0 regression(s)"), "{stdout}");
    assert!(!stdout.contains("REGRESSION"), "{stdout}");
    assert!(
        stdout.contains("reads_sharded    dc.replay_ns_per_op"),
        "every workload × metric is listed:\n{stdout}"
    );
}

#[test]
fn a_ledger_thirty_percent_slower_is_flagged() {
    let ledger = repo().join("BENCH_29.json");
    let text = std::fs::read_to_string(&ledger).expect("read BENCH_29.json");
    let doctored = std::env::temp_dir().join(format!("bench-diff-{}.json", std::process::id()));
    std::fs::write(&doctored, scaled(&text, 1.3)).expect("write doctored ledger");
    let (code, stdout) = diff(&ledger, &doctored);
    std::fs::remove_file(&doctored).ok();
    assert_eq!(code, 1, "{stdout}");
    let flagged = stdout.lines().filter(|l| l.ends_with("REGRESSION")).count();
    // 4 workloads × 11 lower-is-better end-to-end metrics.
    assert_eq!(flagged, 44, "{stdout}");
}
