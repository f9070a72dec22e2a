//! The repo benchmark. `main.rs` is the command line; see `README.md`
//! for the workloads, the metrics and how they interact.

pub mod alloc;
pub mod harness;
pub mod manifest;
pub mod probes;
pub mod programs;
pub mod report;
pub mod rss;
pub mod run;
pub mod serve;
pub mod stats;
pub mod summarize;
pub mod trace;
pub mod workloads;
