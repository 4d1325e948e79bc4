//! The metric tables: the single source `BENCHMARK.json` is generated
//! from (`ccopt-benchmark --manifest`) and `--repeat` takes its bounds
//! from. A self-test pins the checked-in file to these tables.

use crate::gen::Workload;
use crate::ladder::MECHANISMS;

/// Seconds one run measures (`run_seconds`). The driver makes
/// 4 + 22 x 5 runs inside 3 420 s with two builds, so a whole run —
/// three set-ups, the measurement, verification — must stay under 25 s.
pub const RUN_SECONDS: u64 = 15;

/// An end-to-end metric: reported by every workload, gated by `bound`
/// (the share of the parent's median it may worsen by).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "commits_per_s",
        unit: "txn/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "txn_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "txn_p99_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// Largest failed share a run may report before `--repeat` fails it.
pub const FAILED_SHARE_BOUND: f64 = 0.001;

/// A per-layer metric of the traced run: `(name, unit, better)`.
pub type PerLayer = (String, &'static str, &'static str);

/// All 68 per-layer metrics, grouped by the module they measure.
pub fn per_layer() -> Vec<PerLayer> {
    let mut v: Vec<PerLayer> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: &'static str| {
        v.push((name.to_string(), unit, better));
    };
    for (slug, _) in MECHANISMS {
        add(&format!("cc.{slug}.decide_ns"), "ns", "lower");
        add(&format!("cc.{slug}.attempts_per_commit"), "count", "lower");
        add(&format!("cc.{slug}.waits_per_commit"), "count", "lower");
    }
    for (name, unit, better) in [
        ("storage.get_set_ns", "ns", "lower"),
        ("mvstore.read_ns", "ns", "lower"),
        ("mvstore.install_ns", "ns", "lower"),
        ("mvstore.gc_us_per_call", "us", "lower"),
        ("mvstore.live_versions_peak", "count", "lower"),
        ("session.2pl.us_per_txn", "us", "lower"),
        ("session.si.us_per_txn", "us", "lower"),
        ("session.self_us_per_txn", "us", "lower"),
        ("session.steps_per_commit", "count", "lower"),
        ("session.peak_slots", "count", "lower"),
        ("encoding.record_ns", "ns", "lower"),
        ("wal.strict_us_per_commit", "us", "lower"),
        ("wal.group32_us_per_commit", "us", "lower"),
        ("wal.append_us", "us", "lower"),
        ("wal.fsync_us", "us", "lower"),
        ("wal.fsync_p99_us", "us", "lower"),
        ("wal.commits_per_fsync", "count", "higher"),
        ("wal.bytes_per_commit", "bytes", "lower"),
        ("recovery.us_per_commit", "us", "lower"),
        ("par.call_us", "us", "lower"),
        ("par.call_p99_us", "us", "lower"),
        ("shard.s1_us_per_txn", "us", "lower"),
        ("shard.s2_local_us_per_txn", "us", "lower"),
        ("shard.s2_cross_us_per_txn", "us", "lower"),
        ("shard.s2_local_g64_us_per_txn", "us", "lower"),
        ("shard.s2_cross_g64_us_per_txn", "us", "lower"),
        ("shard.msgs_per_txn_local", "count", "lower"),
        ("shard.msgs_per_txn_cross", "count", "lower"),
        ("shard.self_us_per_txn", "us", "lower"),
        ("shard.twopc_us_per_txn", "us", "lower"),
        ("frame.encode_req_ns", "ns", "lower"),
        ("frame.decode_req_ns", "ns", "lower"),
        ("frame.encode_resp_ns", "ns", "lower"),
        ("frame.decode_resp_ns", "ns", "lower"),
        ("net.ping_rtt_us", "us", "lower"),
        ("net.ping_rtt_p99_us", "us", "lower"),
        ("net.begin_rtt_us", "us", "lower"),
        ("net.batch_rtt_us", "us", "lower"),
        ("net.commit_rtt_us", "us", "lower"),
        ("server.self_us_per_txn", "us", "lower"),
        ("server.sheds_per_request", "ratio", "lower"),
        ("server.requests_per_commit", "count", "lower"),
        ("server.waits_per_commit", "count", "lower"),
        ("server.restarts_per_commit", "count", "lower"),
        ("trace.on_overhead_share", "ratio", "lower"),
        ("bench.span_overhead_share", "ratio", "lower"),
        ("ledger.unattributed_share", "ratio", "lower"),
    ] {
        add(name, unit, better);
    }
    v
}

/// Counters that repeat exactly (one thread, no timers): `--repeat`
/// demands them bit-identical across its two traced runs.
pub fn is_fixed_count(name: &str) -> bool {
    let cc_count = name.ends_with(".attempts_per_commit") || name.ends_with(".waits_per_commit");
    name.starts_with("cc.") && cc_count || name.starts_with("shard.msgs_per_txn_")
}

/// The contents of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let workloads: Vec<String> = Workload::GATED
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let layers: Vec<String> = per_layer()
        .iter()
        .map(|(name, unit, better)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn legal_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn legal_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let layers = per_layer();
        assert_eq!(layers.len(), 68);
        let mut names: Vec<&str> = layers.iter().map(|l| l.0.as_str()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        assert!(names.iter().all(|n| legal_name(n)), "{names:?}");
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(layers.iter().all(|l| legal_unit(l.1)));
        assert!(END_TO_END
            .iter()
            .all(|m| legal_unit(m.unit) && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        // 4 + 22 x workloads runs of ~RUN_SECONDS + 5 s must fit 3420 s
        // with room for two builds.
        let runs = 4 + 22 * Workload::GATED.len() as u64;
        assert!(runs * (RUN_SECONDS + 5) + 300 <= 3420);
        assert!(manifest_json().len() < 64 * 1024);
    }

    #[test]
    fn checked_in_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            manifest_json(),
            "regenerate with: benchmark/run.sh --manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn fixed_count_counters_are_the_named_ones() {
        let fixed: Vec<String> = per_layer()
            .into_iter()
            .map(|l| l.0)
            .filter(|n| is_fixed_count(n))
            .collect();
        assert_eq!(fixed.len(), 7 + 7 + 2, "{fixed:?}");
        assert!(!is_fixed_count("server.waits_per_commit"));
    }
}
