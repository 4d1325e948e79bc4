//! Trace-plane acceptance: the differential claim (a traced run changes
//! nothing the engine decides — same commits, same conflicts, same final
//! state, bit-for-bit) and the flight-recorder claim (a shard panic
//! mid-stream leaves a schema-valid JSONL dump whose merged events are
//! totally ordered and attribute every abort).

use ccopt_engine::trace::validate_jsonl_line;
use ccopt_engine::{CcKind, DurabilityMode, TraceConfig};
use ccopt_sim::open_sim::{
    named_abort_rules, simulate_open, simulate_open_traced, OpenSimConfig, OpenSimResult,
    TOP_CONTENDED,
};
use ccopt_sim::shard_sim::{
    simulate_sharded, simulate_sharded_traced, FaultPlan, ShardDurableConfig, ShardSimConfig,
};

/// Every deterministic field of two runs must agree bit-for-bit (floats
/// compared by bit pattern: "close" is not "identical").
fn assert_identical(name: &str, a: &OpenSimResult, b: &OpenSimResult) {
    assert_eq!(a.committed, b.committed, "{name}: committed");
    assert_eq!(a.aborts, b.aborts, "{name}: aborts");
    assert_eq!(a.waits, b.waits, "{name}: waits");
    assert_eq!(a.retires, b.retires, "{name}: retires");
    assert_eq!(a.mv_write_aborts, b.mv_write_aborts, "{name}: mv aborts");
    assert_eq!(a.clock.to_bits(), b.clock.to_bits(), "{name}: clock");
    assert_eq!(
        a.throughput.to_bits(),
        b.throughput.to_bits(),
        "{name}: throughput"
    );
    assert_eq!(a.latency, b.latency, "{name}: latency summary");
    assert_eq!(a.peak_slots, b.peak_slots, "{name}: peak slots");
    assert_eq!(
        a.peak_open_sessions, b.peak_open_sessions,
        "{name}: peak sessions"
    );
    assert_eq!(
        a.peak_live_versions, b.peak_live_versions,
        "{name}: peak versions"
    );
    assert_eq!(
        a.versions_reclaimed, b.versions_reclaimed,
        "{name}: reclaimed"
    );
    assert_eq!(a.final_state, b.final_state, "{name}: final state");
    assert_eq!(a.shard_restarts, b.shard_restarts, "{name}: restarts");
    assert_eq!(a.io_retries, b.io_retries, "{name}: io retries");
    assert_eq!(
        a.recovery_replayed, b.recovery_replayed,
        "{name}: recovery replayed"
    );
    assert_eq!(
        a.commit_lat_ticks_p50, b.commit_lat_ticks_p50,
        "{name}: commit latency p50"
    );
    assert_eq!(
        a.commit_lat_ticks_p99, b.commit_lat_ticks_p99,
        "{name}: commit latency p99"
    );
    assert_eq!(a.top_contended, b.top_contended, "{name}: top contended");
    assert_eq!(a.aborts_by_rule, b.aborts_by_rule, "{name}: aborts by rule");
}

fn contended(seed: u64, total: usize) -> OpenSimConfig {
    OpenSimConfig {
        terminals: 6,
        total_txns: total,
        vars: 8,
        hot_fraction: 0.5,
        read_fraction: 0.3,
        seed,
        ..OpenSimConfig::default()
    }
}

#[test]
fn traced_open_runs_are_bit_identical_to_untraced() {
    // Tracing must be an observer: a traced run (ring + sink on) decides
    // exactly what the untraced run decides, mechanism by mechanism.
    let dir = ccopt_engine::durability::scratch_path("sim-trace-diff");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for kind in CcKind::ALL {
        let name = kind.name();
        let cfg = contended(17, 80);
        let base = simulate_open(kind, &cfg);
        let sink = dir.join(format!("open-{}.jsonl", name.replace('/', "_")));
        let traced = simulate_open_traced(kind, &cfg, None, &TraceConfig::to_sink(&sink));
        assert_identical(name, &base, &traced);
        // And the sink it produced is schema-valid, line by line.
        let body = std::fs::read_to_string(&sink).unwrap();
        assert!(!body.is_empty(), "{name}: the sink captured no events");
        for line in body.lines() {
            validate_jsonl_line(line).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn traced_sharded_runs_are_bit_identical_to_untraced() {
    for kind in CcKind::ALL {
        let name = kind.name();
        let scfg = ShardSimConfig::new(contended(23, 60), 2, 0.4);
        let base = simulate_sharded(kind, &scfg);
        let traced = simulate_sharded_traced(kind, &scfg, None, None, &TraceConfig::ring(1024));
        assert_identical(name, &base, &traced);
    }
}

#[test]
fn contended_runs_attribute_their_aborts_and_rank_hot_variables() {
    // The attribution surfaces in the result: rule rows account for every
    // abort, and under a hot-variable workload the contention table names
    // the hot variable first.
    for kind in CcKind::ALL {
        let name = kind.name();
        let r = simulate_open(kind, &contended(31, 80));
        let attributed: usize = r.aborts_by_rule.iter().map(|&(_, n)| n).sum();
        assert_eq!(
            attributed, r.aborts,
            "{name}: every abort must carry a rule"
        );
        assert!(r.top_contended.len() <= TOP_CONTENDED, "{name}");
        if let Some(&(var, waits, aborts)) = r.top_contended.first() {
            assert_eq!(var, 0, "{name}: the scripted hot variable leads");
            assert!(waits + aborts > 0, "{name}");
        }
    }
}

#[test]
fn named_abort_rules_lists_non_zero_rows_in_rule_order() {
    use ccopt_engine::ConflictRule;
    let mut table = [0usize; ConflictRule::COUNT];
    table[ConflictRule::Deadlock.index()] = 2;
    table[ConflictRule::OccValidation.index()] = 5;
    assert_eq!(
        named_abort_rules(&table),
        vec![("deadlock", 2), ("occ_validation", 5)]
    );
    assert!(named_abort_rules(&[0; ConflictRule::COUNT]).is_empty());
}

#[test]
fn shard_panic_mid_2pc_dumps_a_valid_flight_recorder() {
    // The acceptance scenario: a durable sharded stream with cross-shard
    // traffic, shard 0 panicked mid-stream, tracing on with a sink and a
    // dump directory. The supervisor must dump shard 0's ring before
    // respawning it; the dump and the live sink must both be schema-valid
    // JSONL; the merged stream must be totally ordered and reconstruct
    // the committed prefix; and every abort must carry its attribution.
    let kind = CcKind::Strict2pl;
    let name = kind.name();
    let root = ccopt_engine::durability::scratch_path("sim-trace-flight");
    let _ = std::fs::remove_dir_all(&root);
    let wal_dir = root.join("wal");
    let dump_dir = root.join("dumps");
    let sink = root.join("trace.jsonl");
    let scfg = ShardSimConfig::new(
        OpenSimConfig {
            terminals: 4,
            total_txns: 60,
            vars: 8,
            seed: 11,
            check: true,
            ..OpenSimConfig::default()
        },
        2,
        0.5,
    );
    let dur = ShardDurableConfig {
        record_journal: true,
        ..ShardDurableConfig::new(wal_dir, DurabilityMode::Strict)
    };
    let plan = FaultPlan::panic_at(20, 0);
    let trace = TraceConfig::to_sink(&sink).with_dump_dir(&dump_dir);
    let r = simulate_sharded_traced(kind, &scfg, Some(&dur), Some(&plan), &trace);
    assert_eq!(r.committed, 60, "{name}: the stream serves fully");
    assert!(r.shard_restarts >= 1, "{name}: the panic was supervised");

    // The flight-recorder dump of the dead shard exists and validates.
    let dump = dump_dir.join("flight-shard0.jsonl");
    let dump_body = std::fs::read_to_string(&dump).expect("the supervisor dumped shard 0's ring");
    assert!(!dump_body.is_empty());
    let mut dump_gseq = Vec::new();
    for line in dump_body.lines() {
        validate_jsonl_line(line).unwrap_or_else(|e| panic!("dump: {e}"));
        dump_gseq.push(field(line, "gseq"));
    }
    // A ring dump is the shard's stream in emission order: its global
    // stamps are strictly increasing.
    assert!(
        dump_gseq.windows(2).all(|w| w[0] < w[1]),
        "the dump preserves emission order"
    );

    // The live sink validates line by line and merges into a total order.
    let body = std::fs::read_to_string(&sink).unwrap();
    let mut events: Vec<(u64, String)> = Vec::new();
    for line in body.lines() {
        validate_jsonl_line(line).unwrap_or_else(|e| panic!("sink: {e}"));
        events.push((field(line, "gseq"), line.to_string()));
    }
    events.sort_by_key(|&(g, _)| g);
    // Global stamps are unique (a strict total order, not just a sort).
    assert!(
        events.windows(2).all(|w| w[0].0 < w[1].0),
        "gseq stamps are unique across shards"
    );
    // Per-shard streams stay internally ordered inside the merge, and
    // their sequence numbers are gap-free per tracer incarnation (the
    // respawned shard starts a fresh tracer at seq 1).
    for shard in 0..=2u64 {
        let seqs: Vec<u64> = events
            .iter()
            .filter(|(_, l)| field(l, "shard") == shard)
            .map(|(_, l)| field(l, "seq"))
            .collect();
        for w in seqs.windows(2) {
            assert!(
                w[1] == w[0] + 1 || w[1] == 1,
                "shard {shard}: seq jumps from {} to {}",
                w[0],
                w[1]
            );
        }
    }
    // The crash is visible in the stream: shard 0 went down and came
    // back, in that order.
    let down = events
        .iter()
        .position(|(_, l)| l.contains("\"event\":\"shard_down\""))
        .expect("the supervisor traced the crash");
    let up = events
        .iter()
        .position(|(_, l)| l.contains("\"event\":\"shard_up\""))
        .expect("the supervisor traced the recovery");
    assert!(down < up, "down precedes up in the merged order");
    // The committed prefix is reconstructible: the merged stream carries
    // at least one local commit event per committed transaction (cross-
    // shard transactions commit on several shards), and — post-crash —
    // the coordinator's resolve decisions are all present.
    let commits = events
        .iter()
        .filter(|(_, l)| l.contains("\"event\":\"commit\""))
        .count();
    assert!(
        commits >= r.committed,
        "{commits} commit events cannot cover {} commits",
        r.committed
    );
    // Every abort in the stream carries a rule (the validator enforced
    // the field); none may be unattributed.
    for (_, l) in events
        .iter()
        .filter(|(_, l)| l.contains("\"event\":\"abort\""))
    {
        assert!(
            !l.contains("\"rule\":\"unattributed\""),
            "unattributed abort in the trace: {l}"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Extract a numeric field from one flat JSONL line.
fn field(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat).unwrap_or_else(|| panic!("{key} in {line}")) + pat.len();
    line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("numeric field")
}
