//! Experiment harness for the MOCA reproduction.
//!
//! Every table and figure of the paper's evaluation has a generator in
//! [`experiments`]; the `repro` binary drives them from the command line
//! (`cargo run --release -p moca-bench --bin repro -- all`) and writes both
//! aligned-text tables and JSON records (under `results/`).

pub mod diff;
pub mod experiments;
pub mod explain;
pub mod harness;
pub mod report;

pub use harness::{Scale, SeededPipeline};
pub use report::Table;
