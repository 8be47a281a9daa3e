//! Library half of the repository benchmark (the binary is `main.rs`;
//! README.md in this directory defines workloads and metrics). Kept as a
//! library so `cargo test` covers the statistics, seeding and checksums.

pub mod live;
pub mod stats;
pub mod trace;
pub mod workloads;
