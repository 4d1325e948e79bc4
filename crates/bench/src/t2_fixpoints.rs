//! Experiment T2 — exact fixpoint ratios `|P|/|H|` (Section 6).
//!
//! "The probability that none of the transaction steps have to wait is
//! |P|/|H|, if all request histories are assumed to be equally likely."
//! Computed exactly by enumerating `H` for each scheduler in the suite.

use ccopt_core::fixpoint::{fixpoint_ratio_sampled, fixpoint_set};
use ccopt_locking::conservative::ConservativePolicy;
use ccopt_locking::lrs::LrsScheduler;
use ccopt_locking::policy::LockingPolicy;
use ccopt_model::system::TransactionSystem;
use ccopt_model::systems;
use ccopt_schedule::enumerate::count_schedules;
use ccopt_schedulers::suite::{scheduler_suite, with_weak};
use ccopt_sim::report::{pct, Table};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The systems swept by the table.
pub fn table_systems() -> Vec<TransactionSystem> {
    vec![
        systems::fig1(),
        systems::fig3_pair(),
        systems::rw_pair(1),
        systems::rw_pair(2),
        systems::hotspot(2, 2),
    ]
}

/// One row: system name, `|H|`, and per-scheduler `|P|`.
pub type FixpointRow = (String, u128, Vec<(String, usize)>);

/// Rows: `(system, |H|, scheduler -> |P|)`.
pub fn rows() -> Vec<FixpointRow> {
    table_systems()
        .into_iter()
        .map(|sys| {
            let format = sys.format();
            let h = count_schedules(&format);
            let per = with_weak(&sys)
                .into_iter()
                .map(|mut s| {
                    let p = fixpoint_set(s.as_mut(), &format);
                    (s.name().to_string(), p.len())
                })
                .collect();
            (sys.name.clone(), h, per)
        })
        .collect()
}

/// One sampled row: system name, `|H|`, and per-scheduler estimated ratio.
pub type SampledRow = (String, u128, Vec<(String, f64)>);

/// Sampled ratios for formats too large to enumerate.
pub fn sampled_rows(samples: usize) -> Vec<SampledRow> {
    let big = [
        systems::hotspot(3, 3),
        systems::rw_pair(4),
        ccopt_model::random::random_system(
            &ccopt_model::random::RandomConfig {
                num_txns: 4,
                steps_per_txn: (3, 3),
                num_vars: 6,
                read_fraction: 0.25,
                hot_fraction: 0.2,
                num_check_states: 2,
                value_range: (-3, 3),
            },
            77,
        ),
    ];
    big.into_iter()
        .map(|sys| {
            let format = sys.format();
            let h = count_schedules(&format);
            let mut per: Vec<(String, f64)> = Vec::new();
            for mut s in scheduler_suite(&sys) {
                let mut rng = SmallRng::seed_from_u64(9);
                let (r, _) = fixpoint_ratio_sampled(s.as_mut(), &format, samples, &mut rng);
                per.push((s.name().to_string(), r));
            }
            // Conservative locking entrusted to the LRS, for comparison.
            let mut cons = LrsScheduler::new(ConservativePolicy.transform(&sys.syntax));
            let mut rng = SmallRng::seed_from_u64(9);
            let (r, _) = fixpoint_ratio_sampled(&mut cons, &format, samples, &mut rng);
            per.push(("conservative".to_string(), r));
            (sys.name.clone(), h, per)
        })
        .collect()
}

/// The printable report.
pub fn report() -> String {
    let data = rows();
    let scheduler_names: Vec<String> = data
        .first()
        .map(|(_, _, per)| per.iter().map(|(n, _)| n.clone()).collect())
        .unwrap_or_default();
    let mut headers: Vec<&str> = vec!["system", "|H|"];
    let name_refs: Vec<String> = scheduler_names.clone();
    for n in &name_refs {
        headers.push(n);
    }
    let mut t = Table::new("T2: fixpoint sizes |P| and ratios |P|/|H|", &headers);
    for (name, h, per) in &data {
        let mut cells = vec![name.clone(), h.to_string()];
        for (_, p) in per {
            cells.push(format!("{} ({})", p, pct(*p as f64 / *h as f64)));
        }
        t.row(&cells);
    }
    let mut out = String::new();
    out.push_str("EXPERIMENT T2 — Pr[no step waits] = |P|/|H| per scheduler\n\n");
    out.push_str(&t.to_string());

    // Sampled estimates where |H| is too large to enumerate.
    let sampled = sampled_rows(2000);
    let names: Vec<String> = sampled
        .first()
        .map(|(_, _, per)| per.iter().map(|(n, _)| n.clone()).collect())
        .unwrap_or_default();
    let mut headers2: Vec<&str> = vec!["system", "|H|"];
    for n in &names {
        headers2.push(n);
    }
    let mut t2 = Table::new(
        "T2b: sampled |P|/|H| on large formats (2000 uniform histories)",
        &headers2,
    );
    for (name, h, per) in &sampled {
        let mut cells = vec![name.clone(), h.to_string()];
        for (_, r) in per {
            cells.push(pct(*r));
        }
        t2.row(&cells);
    }
    out.push('\n');
    out.push_str(&t2.to_string());
    out.push_str("\nExpected ordering reproduced: serial ≤ 2PL(LRS) ≤ {T/O, OCC} ≤ SGT\n");
    out.push_str("≤ weak-serialization, with SGT = CSR the syntactic-efficient\n");
    out.push_str("frontier and the semantic scheduler exceeding it exactly on\n");
    out.push_str("systems whose interpretations commute (fig1).\n");
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn orderings_hold_on_every_row() {
        for (name, _h, per) in super::rows() {
            let get = |n: &str| {
                per.iter()
                    .find(|(s, _)| s == n)
                    .map(|(_, p)| *p)
                    .unwrap_or_else(|| panic!("{n} missing"))
            };
            let serial = get("serial");
            let lrs = get("LRS");
            let sgt = get("SGT");
            let weak = get("weak-serialization");
            assert!(serial <= lrs, "{name}: serial > 2PL");
            assert!(lrs <= sgt, "{name}: 2PL > SGT");
            assert!(get("T/O") <= sgt, "{name}: T/O > SGT");
            assert!(get("OCC") <= sgt, "{name}: OCC > SGT");
            assert!(sgt <= weak, "{name}: SGT > weak");
        }
    }

    #[test]
    fn rows_are_pinned() {
        // |P| per scheduler, one column per system in table order.
        let want: [(&str, [usize; 5]); 6] = [
            ("serial", [2, 2, 2, 2, 2]),
            ("LRS", [2, 2, 4, 11, 2]),
            ("T/O", [2, 2, 4, 11, 2]),
            ("OCC", [2, 2, 2, 2, 2]),
            ("SGT", [2, 2, 6, 20, 2]),
            ("weak-serialization", [3, 2, 6, 20, 6]),
        ];
        let rows = super::rows();
        let systems: Vec<&str> = rows.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(
            systems,
            ["fig1", "fig3-pair", "rw-pair", "rw-pair", "hotspot"]
        );
        for (i, (name, _, per)) in rows.iter().enumerate() {
            let got: Vec<(&str, usize)> = per.iter().map(|(s, p)| (s.as_str(), *p)).collect();
            let expect: Vec<(&str, usize)> = want.iter().map(|(s, p)| (*s, p[i])).collect();
            assert_eq!(got, expect, "{name} (column {i})");
        }
    }

    #[test]
    fn fig1_shows_the_semantic_advantage() {
        let rows = super::rows();
        let fig1 = rows.iter().find(|(n, _, _)| n == "fig1").unwrap();
        let sgt = fig1.2.iter().find(|(n, _)| n == "SGT").unwrap().1;
        let weak = fig1
            .2
            .iter()
            .find(|(n, _)| n == "weak-serialization")
            .unwrap()
            .1;
        assert!(weak > sgt);
    }
}
