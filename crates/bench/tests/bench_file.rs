//! The checked-in `BENCH_engine.json`'s contract: deterministic leaves
//! only, and every grid row-for-row in `CcKind::ALL` order — mechanism
//! order is part of every leaf's path, which is what lets
//! `git diff --exit-code` after `--bin throughput` be the regression
//! guard. This test is the fast half (shape and vocabulary, no
//! simulation); the exact regeneration check is a CI step.

use ccopt_engine::CcKind;

/// The `"cc"` column of the array opened by `"<name>": [`, in file order.
fn cc_column<'a>(json: &'a str, name: &str) -> Vec<&'a str> {
    let open = format!("\"{name}\": [");
    let mut lines = json.lines().skip_while(|l| l.trim() != open);
    assert!(lines.next().is_some(), "no `{name}` array in the file");
    lines
        .take_while(|l| !l.trim().starts_with(']'))
        .map(|row| {
            let key = "\"cc\": \"";
            let at = row.find(key).expect("every row names its mechanism") + key.len();
            &row[at..at + row[at..].find('"').expect("closing quote")]
        })
        .collect()
}

#[test]
fn the_checked_in_file_is_deterministic_only_and_in_mechanism_order() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_engine.json"))
        .expect("the checked-in BENCH_engine.json");
    assert!(json.contains("\"schema\": \"ccopt-bench/throughput/v12\""));

    // No wall-clock vocabulary: `benchmark/` owns real time. Keys are
    // the only quoted runs followed by a colon, and no workload label
    // contains one of these fragments.
    for timed in [
        "_per_sec\":",
        "_ms\":",
        "\"served",
        "_tax",
        "\"ops_overhead\":",
        "\"wire\":",
    ] {
        assert!(
            !json.contains(timed),
            "wall-clock key matching `{timed}` in BENCH_engine.json"
        );
    }

    // The closed-world grid and its configuration are gone: the
    // open-world machine is the one simulator.
    for closed in ["\"results\":", "\"batches\":", "\"workload_seeds\":"] {
        assert!(
            !json.contains(closed),
            "closed-world key `{closed}` in BENCH_engine.json"
        );
    }

    let all: Vec<&str> = CcKind::ALL.iter().map(|k| k.name()).collect();
    for grid in ["open_world", "sharded", "degraded"] {
        let ccs = cc_column(&json, grid);
        assert!(!ccs.is_empty(), "`{grid}` is empty");
        for (block, chunk) in ccs.chunks(all.len()).enumerate() {
            assert_eq!(
                chunk, all,
                "`{grid}` block {block}: one row per CcKind::ALL member, in ALL order"
            );
        }
    }
    // The messaging count runs two representatives, still in ALL order.
    let tax = cc_column(&json, "tax");
    let mut rest = all.iter();
    assert!(
        !tax.is_empty() && tax.iter().all(|cc| rest.any(|a| a == cc)),
        "`batched.tax` rows {tax:?} are not CcKind::ALL members in ALL order"
    );
}
