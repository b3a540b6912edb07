//! The workloads. Each has `measure` (tracing off: end-to-end metrics)
//! and `trace` (the traced run: per-layer metrics). The probes run only in
//! traced runs: `spiral_probe` in compress-line's, `serve_probe` in
//! sweep-churn's.

pub mod compress_line;
pub mod serve_probe;
pub mod spiral_probe;
pub mod sweep_churn;

/// The workload names `--workload` accepts.
pub const NAMES: [&str; 2] = ["compress-line", "sweep-churn"];
