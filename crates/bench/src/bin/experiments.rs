//! Regenerate every figure and table of the paper.
//!
//! ```text
//! cargo run -p ccopt-bench --bin experiments            # all experiments
//! cargo run -p ccopt-bench --bin experiments -- F1 T2   # a selection
//! ```

use ccopt_bench::{run_experiment, ALL_IDS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<String> = if args.is_empty() {
        ALL_IDS.iter().map(|s| s.to_string()).collect()
    } else {
        args
    };
    let mut unknown = Vec::new();
    for (k, id) in ids.iter().enumerate() {
        match run_experiment(id) {
            Some(report) => {
                if k > 0 {
                    println!("\n{}\n", "=".repeat(72));
                }
                println!("{report}");
            }
            None => unknown.push(id.as_str()),
        }
    }
    if !unknown.is_empty() {
        eprintln!("unknown experiment id: {unknown:?} (known: {ALL_IDS:?})");
        std::process::exit(2);
    }
}
