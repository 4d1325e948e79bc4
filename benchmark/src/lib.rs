//! The repository's wall-clock benchmark: six workloads, end-to-end
//! metrics with regression bounds, and an outside-in ladder that times
//! every layer through its public entry points. See `README.md`.

pub mod gen;
pub mod ladder;
pub mod lib_driver;
pub mod manifest;
pub mod run;
pub mod served;
pub mod spans;
pub mod stats;
