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
use ccopt::sim::engine_sim::{simulate_engine, SimConfig};
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

    // Axis 2: engine simulation on a contended workload.
    let hot = systems::hotspot(4, 2);
    let cfg = SimConfig {
        batches: 16,
        ..SimConfig::default()
    };
    let mut t = Table::new(
        "engine simulation on hotspot(4 txns x 2 steps)",
        &["cc", "throughput", "avg response", "avg waiting", "aborts"],
    );
    for kind in CcKind::ALL {
        let r = simulate_engine(&hot, kind, &cfg);
        t.row(&[
            r.cc_name.clone(),
            f3(r.throughput),
            f3(r.response.mean),
            f3(r.waiting.mean),
            r.aborts.to_string(),
        ]);
    }
    println!("{t}");
    println!("Both axes tell the Section 6 story: richer information ⇒ fewer");
    println!("forced waits; on a pure hotspot everything serializes anyway.");
}
