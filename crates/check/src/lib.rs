//! `mcs-check` — machine-checked paper-shape validation.
//!
//! Runs every harness registered in `mcs-bench` at a deterministic
//! reduced scale, gathers the invariants each one scores, compares the
//! emitted tables against blessed golden CSVs with the tolerance each
//! column's kind implies, and writes a machine-readable
//! `results/check_report.json`. The `cargo run -p mcs-check` binary
//! exits non-zero on any violation — CI gates on it.

pub mod golden;
pub mod report;

pub use golden::{compare, ColumnPolicy, GoldenOutcome};
pub use report::{check, check_warn, Band, CheckOutcome, CheckReport};

/// Default workload scale for a check run (override with `MCS_SCALE`).
/// Small enough for CI, large enough that every ratio invariant is out
/// of the overhead-dominated regime.
pub const DEFAULT_SCALE: f64 = 0.1;
