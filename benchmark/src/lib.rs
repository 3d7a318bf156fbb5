//! The repo benchmark's parts (see `benchmark/README.md`); the binary in
//! `main.rs` is the command line over them.

pub mod inputs;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;
