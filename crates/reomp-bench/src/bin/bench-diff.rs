//! `bench-diff <parent.json> <change.json> [BENCHMARK.json]`: compare two
//! `perfbench --all` ledgers, printing `change / parent` per workload ×
//! end-to-end metric; exits 1 when a metric is worse than the parent by more
//! than its `BENCHMARK.json` bound, 2 on bad input.

use std::collections::BTreeMap;
use std::process::ExitCode;
type Flat = BTreeMap<String, String>;

/// Skip whitespace and the `,`/`:` separators (valid input needs no check).
fn skip(s: &[u8], i: &mut usize) {
    while s.get(*i).is_some_and(|c| b" \n\r\t,:".contains(c)) {
        *i += 1;
    }
}

/// Flatten JSON into `/`-joined key (or array index) paths → scalar text.
fn flatten(s: &[u8], i: &mut usize, path: &str, out: &mut Flat) -> Option<()> {
    skip(s, i);
    let open = *s.get(*i)?;
    let obj = open == b'{';
    if !obj && open != b'[' {
        out.insert(path.into(), scalar(s, i)?);
        return Some(());
    }
    *i += 1;
    for n in 0.. {
        skip(s, i);
        if matches!(s.get(*i)?, b'}' | b']') {
            break;
        }
        let key = if obj { scalar(s, i)? } else { n.to_string() };
        flatten(s, i, &format!("{path}/{key}"), out)?;
    }
    *i += 1;
    Some(())
}

/// A string (unquoted, escapes kept) or a bare number/literal.
fn scalar(s: &[u8], i: &mut usize) -> Option<String> {
    skip(s, i);
    let quoted = s.get(*i) == Some(&b'"');
    let stop: &[u8] = if quoted { b"\"" } else { b",}] \n\r\t" };
    let start = *i + usize::from(quoted);
    *i = start;
    while s.get(*i).is_some_and(|c| !stop.contains(c)) {
        *i += 1 + usize::from(quoted && s[*i] == b'\\');
    }
    let text = String::from_utf8_lossy(s.get(start..*i)?).into_owned();
    *i += usize::from(quoted);
    (quoted || !text.is_empty()).then_some(text)
}

fn load(path: &str) -> Result<Flat, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Flat::new();
    flatten(&bytes, &mut 0, "", &mut out).ok_or(format!("{path}: malformed JSON"))?;
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if !(2..=3).contains(&args.len()) {
        eprintln!("usage: bench-diff <parent.json> <change.json> [BENCHMARK.json]");
        return ExitCode::from(2);
    }
    let spec = args.get(2).map_or("BENCHMARK.json", String::as_str);
    let (parent, change, spec) = match (load(&args[0]), load(&args[1]), load(spec)) {
        (Ok(p), Ok(c), Ok(s)) => (p, c, s),
        (Err(e), ..) | (_, Err(e), _) | (.., Err(e)) => {
            eprintln!("bench-diff: {e}");
            return ExitCode::from(2);
        }
    };
    let num = |map: &Flat, key: String| map.get(&key)?.parse::<f64>().ok();
    let mut regressions = 0;
    println!("workload         metric                       parent       change   ratio");
    for name in change
        .iter()
        .filter_map(|(k, v)| k.ends_with("/workload").then_some(v))
    {
        let metrics = (0..).map_while(|n| Some((n, spec.get(&format!("/end_to_end/{n}/name"))?)));
        for (n, metric) in metrics {
            let value = |ledger| num(ledger, format!("/workloads/{name}/metrics/{metric}/value"));
            let (Some(old), Some(new)) = (value(&parent), value(&change)) else {
                continue;
            };
            let field = |f: &str| spec.get(&format!("/end_to_end/{n}/{f}"));
            let bound: f64 = field("bound").and_then(|b| b.parse().ok()).unwrap_or(0.0);
            let higher = field("better").is_some_and(|b| b == "higher");
            let ratio = if old == new { 1.0 } else { new / old };
            let worse = if higher { 1.0 - ratio } else { ratio - 1.0 } > bound;
            regressions += usize::from(worse);
            let flag = if worse { "  REGRESSION" } else { "" };
            println!("{name:<16} {metric:<22} {old:>12.4} {new:>12.4} {ratio:>7.3}{flag}");
        }
    }
    println!("{regressions} regression(s) beyond their bounds");
    ExitCode::from(u8::from(regressions > 0))
}
