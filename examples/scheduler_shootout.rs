//! The scheduler line-up compared on both axes the paper defines:
//! exact fixpoint ratios (order view) and simulated waiting/throughput
//! (engine view).
//!
//! ```text
//! cargo run --release --example scheduler_shootout
//! ```

use ccopt::core::fixpoint::fixpoint_ratio;
use ccopt::engine::CcKind;
use ccopt::model::systems;
use ccopt::schedulers::suite::with_weak;
use ccopt::sim::open_sim::{simulate_open, OpenSimConfig};
use ccopt::sim::report::{f3, pct, Table};

fn main() {
    // Axis 1: Pr[no step waits] = |P|/|H| on the private-work pair.
    let sys = systems::rw_pair(2);
    let mut t = Table::new(
        "fixpoint ratios on rw-pair(2)  (|H| = 20)",
        &["scheduler", "|P|/|H|"],
    );
    for mut s in with_weak(&sys) {
        let r = fixpoint_ratio(s.as_mut(), &sys.format());
        t.row(&[s.name().to_string(), pct(r)]);
    }
    println!("{t}");

    // Axis 2: four users at terminals updating one hot variable.
    let hot = OpenSimConfig {
        terminals: 4,
        total_txns: 64,
        vars: 1,
        steps: (2, 2),
        read_fraction: 0.0,
        ..OpenSimConfig::default()
    };
    let mut t = Table::new(
        "engine simulation on a hotspot (4 users x 2 steps, one variable)",
        &[
            "cc",
            "throughput",
            "avg response",
            "waits/commit",
            "aborts/commit",
        ],
    );
    for kind in CcKind::ALL {
        let r = simulate_open(kind, &hot);
        t.row(&[
            r.cc_name.clone(),
            f3(r.throughput),
            f3(r.latency.mean),
            f3(r.waits as f64 / r.committed.max(1) as f64),
            f3(r.abort_rate),
        ]);
    }
    println!("{t}");
    println!("Both axes tell the Section 6 story: richer information ⇒ fewer");
    println!("forced waits; on a pure hotspot everything serializes anyway.");
}
