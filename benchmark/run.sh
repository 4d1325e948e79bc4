#!/usr/bin/env bash
# Build the benchmark (its own cargo package; the repository's workspace
# is untouched) and run it. Run from the repository root.
#
#   benchmark/run.sh [--seed N]          all six workloads, one child process each
#   benchmark/run.sh --traced            the traced ladder: per-layer metrics, spans
#   benchmark/run.sh --repeat            both, twice, compared against the bounds
#   benchmark/run.sh --quick             3 s runs (a smoke; no bounds applied)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                        one run; its last output line is the
#                                        result object BENCHMARK.json's command
#                                        is driven for
#   benchmark/run.sh --manifest          print BENCHMARK.json
set -euo pipefail

# The driver names the target directory; a developer gets target/benchmark.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"

# Build chatter goes to standard error: standard output ends with the result.
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2

# One CPU for the whole process. On this two-vCPU guest a wake-up that
# crosses vCPUs costs 14 us in one minute and 70 us in the next (a real
# core: a few), which swamps every layer: unpinned, served_cross reads
# 2.5-3.0 k commits/s, pinned 14.7 k within 3 %. The pin is printed in
# each run's `machine:` line (`cpus_allowed=`).
pin=()
if command -v taskset >/dev/null; then
  first_cpu=$(taskset -cp $$ | sed 's/.*: *//; s/[,-].*//')
  pin=(taskset -c "$first_cpu")
fi

exec "${pin[@]}" "$CARGO_TARGET_DIR/release/ccopt-benchmark" "$@"
