//! End-to-end benchmark of the Custody simulator.
//!
//! `cargo run --release --manifest-path simbench/Cargo.toml -- --workload
//! <name> --seed <n> --seconds <s> --trace <0|1>` runs one named workload
//! through `custody_sim::Simulation::run` and prints its metrics, ending
//! with one JSON line. See the README for the metrics and the workloads.

pub mod measure;
pub mod probe;
pub mod replay;
pub mod trace;
pub mod workloads;
