//! The measuring loop shared by the workloads: repeat the workload's
//! measured work on the same inputs until the time is up, time a reference
//! kernel ([`calib`]) around every repetition, and report the median over
//! the repetitions in reference seconds. Repeating the same inputs keeps
//! the work of every sample equal, the median of many samples is not moved
//! by slow phases of the host that last a few seconds of a run, and the
//! reference kernel takes out the host's drift between runs.

use std::time::Instant;

use crate::calib::{self, Kernel};
use crate::report::Metrics;
use crate::stats;

/// One repetition's measurements.
#[derive(Debug, Default)]
pub struct Iter {
    /// First set-up call → last result produced.
    pub wall_s: f64,
    /// The set-up part of `wall_s`: everything before the first step.
    pub setup_s: f64,
    /// Samples of the workload's headline work rate.
    pub rates: Vec<f64>,
    /// Samples of other [`crate::report::WORKLOAD`] rates, by name.
    pub headline: Vec<(&'static str, Vec<f64>)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed or with wrong output.
    pub failed: u64,
    /// The first output check that failed, if any.
    pub problem: Option<String>,
    /// The factor that turns this repetition's seconds into reference
    /// seconds: the kernel's nominal time over its mean time per call in
    /// the samples right before and right after the repetition. Set by
    /// [`repeat_for`]; 0 when not sampled.
    pub to_ref: f64,
}

impl Iter {
    /// [`Iter::to_ref`], or 1 when the reference was not sampled.
    fn scale(&self) -> f64 {
        if self.to_ref > 0.0 {
            self.to_ref
        } else {
            1.0
        }
    }
}

/// A run's result: metrics plus the operation counts.
#[derive(Debug, Default)]
pub struct RunOut {
    /// Reported metrics.
    pub metrics: Metrics,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed or with wrong output.
    pub failed: u64,
    /// Every failed output check.
    pub problems: Vec<String>,
}

/// Derives the input seed of item `i` (a job, a request) from `seed`.
#[must_use]
pub fn derive(seed: u64, i: u64) -> u64 {
    sops_engine::seed::child_seed(seed, i)
}

/// Share of a repetition's wall spent sampling the reference kernel after
/// it (at least one call).
const REF_SHARE: f64 = 0.05;

/// Runs `f` until `seconds` have elapsed and at least `min_iters` ran,
/// sampling `kernel` before the first repetition and after each one.
///
/// # Errors
///
/// The first error `f` returns.
pub fn repeat_for(
    seconds: f64,
    min_iters: usize,
    kernel: Kernel,
    mut f: impl FnMut() -> Result<Iter, String>,
) -> Result<Vec<Iter>, String> {
    let t = Instant::now();
    let mut iters = Vec::new();
    let mut before = calib::sample(kernel, 0.0);
    while iters.len() < min_iters || t.elapsed().as_secs_f64() < seconds {
        let mut iter = f()?;
        let after = calib::sample(kernel, REF_SHARE * iter.wall_s);
        iter.to_ref = kernel.nominal_s() / ((before + after) / 2.0);
        before = after;
        iters.push(iter);
    }
    Ok(iters)
}

/// Reduces repetitions to the end-to-end metrics and the workload's
/// headline rates: the median of each, in reference seconds where the
/// reference was sampled (plain seconds in a traced run).
/// `peak_rss_mb` is this process's peak so far.
#[must_use]
pub fn summarize(iters: &[Iter]) -> RunOut {
    let walls: Vec<f64> = iters.iter().map(|i| i.wall_s * i.scale()).collect();
    let rates: Vec<f64> = iters
        .iter()
        .flat_map(|i| i.rates.iter().map(move |r| r / i.scale()))
        .collect();
    let mut out = RunOut::default();
    out.metrics.set("wall_s", stats::median(&walls));
    let setups: Vec<f64> = iters.iter().map(|i| i.setup_s * i.scale()).collect();
    out.metrics.set("setup_s", stats::median(&setups));
    out.metrics.set("work_per_s", stats::median(&rates));
    out.metrics.set("peak_rss_mb", peak_rss_mb("self"));
    if let Some(first) = iters.first() {
        for (name, _) in &first.headline {
            let samples: Vec<f64> = iters
                .iter()
                .flat_map(|i| {
                    i.headline
                        .iter()
                        .filter(|(n, _)| n == name)
                        .flat_map(move |(_, v)| v.iter().map(move |r| r / i.scale()))
                })
                .collect();
            out.metrics.set(name, stats::median(&samples));
        }
    }
    out.attempted = iters.iter().map(|i| i.attempted).sum();
    out.failed = iters.iter().map(|i| i.failed).sum();
    out.metrics.set(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.problems = iters.iter().filter_map(|i| i.problem.clone()).collect();
    out
}

/// Peak resident set of process `pid` (`"self"` for this one), MB.
#[must_use]
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `bench.trace_overhead_frac`: traced − untraced wall over untraced.
#[must_use]
pub fn trace_overhead(untraced_wall_s: f64, traced_wall_s: f64) -> f64 {
    (traced_wall_s - untraced_wall_s) / untraced_wall_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_takes_medians_in_reference_seconds_and_counts_failures() {
        let iter = |wall_s: f64, rate: f64, failed: u64| Iter {
            wall_s,
            setup_s: wall_s / 2.0,
            rates: vec![rate],
            headline: vec![("jobs_per_s", vec![rate * 2.0])],
            attempted: 10,
            failed,
            problem: (failed > 0).then(|| "bad".to_string()),
            // The host ran at half the reference speed.
            to_ref: 0.5,
        };
        let iters: Vec<Iter> = (1..=11)
            .map(|i| iter(f64::from(i), f64::from(i) * 10.0, u64::from(i == 3)))
            .collect();
        let out = summarize(&iters);
        assert_eq!(out.metrics.get("wall_s"), Some(3.0));
        assert_eq!(out.metrics.get("setup_s"), Some(1.5));
        assert_eq!(out.metrics.get("work_per_s"), Some(120.0));
        assert_eq!(out.metrics.get("jobs_per_s"), Some(240.0));
        assert!(out.metrics.get("peak_rss_mb").is_some_and(|mb| mb > 0.0));
        assert_eq!((out.attempted, out.failed), (110, 1));
        assert_eq!(out.metrics.get("failed_frac"), Some(1.0 / 110.0));
        assert_eq!(out.problems, vec!["bad".to_string()]);
    }
}
