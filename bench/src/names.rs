//! Every metric this benchmark emits, by name and unit. `BENCHMARK.json`
//! declares the same sets (a unit test compares them), and all later
//! performance claims in this repository refer to these names.

/// `(name, unit, regression bound)` of the end-to-end metrics, the same
/// set on every workload; all are lower-is-better. The timing bounds are
/// as wide as they are because of the host, not the code: on a shared
/// 2-vCPU VM whole runs shift by 10–15 % for tens of seconds at a time
/// (see the README's noise findings).
pub const END_TO_END: [(&str, &str, f64); 11] = [
    ("setup_s", "s", 0.25),
    ("st.record_ns_per_op", "ns", 0.25),
    ("dc.record_ns_per_op", "ns", 0.25),
    ("de.record_ns_per_op", "ns", 0.25),
    ("st.replay_ns_per_op", "ns", 0.25),
    ("dc.replay_ns_per_op", "ns", 0.25),
    ("de.replay_ns_per_op", "ns", 0.25),
    ("st.trace_bytes_per_op", "B", 0.005),
    ("dc.trace_bytes_per_op", "B", 0.005),
    ("de.trace_bytes_per_op", "B", 0.005),
    ("peak_rss_mib", "MiB", 0.10),
];

const SCHEMES: [&str; 3] = ["st", "dc", "de"];

/// `(name, unit)` of the per-layer metrics of the traced run, grouped by
/// the repo module they measure.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| out.push((name.to_string(), unit));

    add("machine.handoff_ns", "ns");

    add("session.record_build_us", "us");
    add("session.replay_build_us", "us");
    add("session.record_finish_ns_per_op", "ns");
    add("session.replay_finish_us", "us");

    for s in SCHEMES {
        add(&format!("gate.{s}.record_solo_ns"), "ns");
    }
    for s in SCHEMES {
        add(&format!("gate.{s}.replay_solo_ns"), "ns");
    }
    add("gate.passthrough_solo_ns", "ns");
    for kind in ["load", "store", "critical", "atomic"] {
        add(&format!("gate.{kind}.record_solo_ns"), "ns");
    }
    for mode in ["record", "replay"] {
        for s in SCHEMES {
            add(&format!("gate.{s}.{mode}_run_ns_per_op"), "ns");
        }
    }
    for mode in ["record", "replay"] {
        for s in SCHEMES {
            add(&format!("gate.{s}.{mode}_wait_share"), "ratio");
        }
    }
    for mode in ["record", "replay"] {
        add(&format!("gate.dc.{mode}_call_p50_ns"), "ns");
        add(&format!("gate.dc.{mode}_call_p99_ns"), "ns");
    }

    add("clock.ticket_cycle_ns", "ns");
    add("clock.ticket_handoff_ns", "ns");
    add("clock.turnstile_cycle_ns", "ns");
    add("clock.turnstile_handoff_ns", "ns");
    add("clock.global_tick_ns", "ns");

    add("sync.baton_cycle_ns", "ns");
    add("sync.baton_handoff_ns", "ns");

    add("epoch.observe_ns", "ns");
    add("epoch.ops_per_epoch", "count");
    add("epoch.share_ops_in_multi", "ratio");

    for counter in [
        "lock_acquires",
        "comms",
        "waits",
        "spin_iters",
        "deferred",
        "edge_waits",
    ] {
        add(&format!("stats.{counter}_per_op"), "count");
    }

    add("codec.encode_ns_per_rec", "ns");
    add("codec.encode_rle_ns_per_rec", "ns");
    add("codec.decode_ns_per_rec", "ns");
    add("codec.decode_rle_ns_per_rec", "ns");
    add("codec.plain_bytes_per_rec", "B");
    add("codec.rle_bytes_per_rec", "B");

    add("store.mem_save_ns_per_rec", "ns");
    add("store.dir_save_ns_per_rec", "ns");
    add("store.dir_save_chunked_ns_per_rec", "ns");
    add("store.dir_load_ns_per_rec", "ns");
    add("store.stream_append_ns_per_rec", "ns");
    add("store.commit_us", "us");
    add("store.chunks_per_mrec", "count");
    add("store.files", "count");

    add("flight.record_ns_per_op", "ns");
    add("flight.dump_us", "us");
    add("flight.retained_peak", "count");

    add("verify.ns_per_rec", "ns");
    add("racedet.offline_ns_per_rec", "ns");

    add("ompr.fork_join_us", "us");
    add("ompr.barrier_ns", "ns");
    add("ompr.critical_solo_ns", "ns");
    add("ompr.reduce_ns", "ns");
    add("ompr.racy_update_solo_ns", "ns");

    add("rmpi.sendrecv_ns", "ns");
    add("rmpi.log_recv_ns", "ns");
    add("rmpi.next_recv_ns", "ns");
    add("rmpi.save_dir_ns_per_evt", "ns");
    add("rmpi.load_dir_ns_per_evt", "ns");
    add("rmpi.bytes_per_evt", "B");
    add("rmpi.verify_ns_per_evt", "ns");

    for app in ["hacc", "hpccg"] {
        add(&format!("miniapps.{app}.pass_s"), "s");
        for s in SCHEMES {
            add(&format!("miniapps.{app}.{s}_rec_x"), "ratio");
            add(&format!("miniapps.{app}.{s}_rep_x"), "ratio");
        }
    }

    add("trace.overhead_share", "ratio");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use crate::workloads;
    use std::collections::BTreeSet;

    fn legal(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn declared(doc: &Json, section: &str) -> Vec<(String, String)> {
        doc.get(section)
            .expect("section present")
            .as_array()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn names_are_legal_and_unique() {
        let mut seen = BTreeSet::new();
        let layer = per_layer();
        let all = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(layer.iter().map(|m| m.0.as_str()))
            .chain(workloads::NAMES);
        for name in all {
            assert!(legal(name), "illegal name {name:?}");
            assert!(seen.insert(name.to_string()), "duplicate name {name:?}");
        }
        assert_eq!(layer.len(), 94);
    }

    #[test]
    fn benchmark_json_declares_exactly_these_sets() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();

        let workloads: Vec<String> = declared(&doc, "workloads")
            .into_iter()
            .map(|w| w.0)
            .collect();
        assert_eq!(workloads, workloads::NAMES);

        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string()))
            .collect();
        assert_eq!(declared(&doc, "end_to_end"), e2e);
        for (m, (_, _, bound)) in doc
            .get("end_to_end")
            .unwrap()
            .as_array()
            .iter()
            .zip(END_TO_END)
        {
            assert_eq!(m.get("bound").and_then(Json::as_f64), Some(bound));
            assert_eq!(m.get("better").and_then(Json::as_str), Some("lower"));
        }

        let layer: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared(&doc, "per_layer"), layer);
    }
}
