//! `sweep-churn`: about a hundred short jobs over every simulator family,
//! with JSONL events and a CSV. Engine per-job overhead (set-up, the sink,
//! per-family dispatch) is a far larger share of the time than in
//! compress-line.
//!
//! The timed sweeps take no checkpoints: on a shared virtual disk the
//! latency of each fsync'd checkpoint write swung by milliseconds between
//! runs, which set `wall_s` more than the code did. The traced run adds
//! one checkpointed sweep, so the checkpoint store is still measured
//! (`engine.checkpoint_write_us`, snapshot and restore probes).

use std::path::{Path, PathBuf};
use std::time::Instant;

use sops::core::CompressionChain;
use sops_engine::{EngineConfig, Shape};

use crate::calib::Kernel;
use crate::harness::{self, Iter, RunOut};
use crate::sweep::{self, SweepRun};
use crate::trace::Tracer;
use crate::workloads::serve_probe;
use crate::{checks, probes};

/// Chain-family step budget, and the checkpoint cadence of the traced
/// run's checkpointed sweep (work units).
const STEPS: u64 = 12_000;
const EVERY: u64 = 3_000;
/// Round budget of `local` and `local-sharded` jobs.
const ROUNDS: u64 = 40;
const REPS: u64 = 2;
/// Worker threads of each sweep. With 2, a sweep's repetition time swung
/// by 24% across interleaved runs as the host's second core came and went
/// (0.063–0.081 s, bimodal), and by 8% with 1 (0.116–0.134 s). Per-job
/// engine overhead needs no second worker; compress-line runs on both.
const WORKERS: usize = 1;
/// Sweeps run at least.
const MIN_ITERS: usize = 10;

/// The experiment TOML; with `checkpoint`, jobs checkpoint under `dir`
/// every [`EVERY`] work units.
fn experiment(seed: u64, dir: &Path, checkpoint: bool) -> String {
    let mut toml = format!(
        "name = \"sweep-churn\"\nseed = {seed}\nshapes = [\"line\", \"random\"]\nns = [30, 60]\n\
         lambdas = [2, 4]\nreps = {REPS}\nsamples = 4\n\
         \n[[grid]]\nalgorithms = [\"chain\", \"chain+alignment:3\", \"chain-kmc\", \"chain-kmc+alignment:3\"]\n\
         steps = {STEPS}\n\
         \n[[grid]]\nalgorithms = [\"local\", \"local-sharded\"]\nsteps = {ROUNDS}\n"
    );
    if checkpoint {
        toml += &format!(
            "\n[checkpoint]\ndir = \"{}\"\nevery = {EVERY}\n",
            dir.join("ckpt").display()
        );
    }
    toml
}

/// A fresh directory for one sweep's checkpoints, events and CSV, and the
/// engine config writing events there.
fn fresh(work: &Path, i: usize) -> Result<(PathBuf, EngineConfig), String> {
    let dir = work.join(format!("churn-{i}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let cfg = EngineConfig {
        events_path: Some(dir.join("events.jsonl")),
        ..EngineConfig::default()
    };
    Ok((dir, cfg))
}

fn iteration(
    seed: u64,
    work: &Path,
    i: usize,
    tracer: &Tracer,
    checkpoint: bool,
) -> Result<(Iter, SweepRun), String> {
    let (dir, cfg) = fresh(work, i)?;
    let csv_path = dir.join("results.csv");
    let t = Instant::now();
    let run = tracer.span("bench.iteration", None, seed, |p| {
        let run = sweep::run(&experiment(seed, &dir, checkpoint), WORKERS, cfg, tracer, p)?;
        tracer
            .span("engine.write_csv", p, 0, |_| {
                std::fs::write(&csv_path, run.report.to_table().to_csv())
            })
            .map_err(|e| format!("{}: {e}", csv_path.display()))?;
        Ok::<_, String>(run)
    })?;
    let wall_s = t.elapsed().as_secs_f64();

    let check = std::fs::read_to_string(&csv_path)
        .map_err(|e| format!("{}: {e}", csv_path.display()))
        .and_then(|csv| checks::sweep_csv(&run.report, &csv));
    std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;

    let jobs_per_s = run.report.results.len() as f64 / wall_s;
    let iter = Iter {
        wall_s,
        setup_s: run.setup_s(),
        rates: vec![jobs_per_s],
        headline: vec![("jobs_per_s", vec![jobs_per_s])],
        attempted: run.report.specs.len() as u64,
        failed: (run.report.failed.len() as u64).max(u64::from(check.is_err())),
        problem: check.err(),
        to_ref: 0.0,
    };
    Ok((iter, run))
}

/// The untraced run. Its times are in reference seconds ([`crate::calib`]).
///
/// # Errors
///
/// An engine set-up or artifact I/O error.
pub fn measure(seed: u64, seconds: f64, work: &Path) -> Result<RunOut, String> {
    let off = Tracer::new(false);
    let mut i = 0;
    let iters = harness::repeat_for(seconds, MIN_ITERS, Kernel::Engine, || {
        i += 1;
        Ok(iteration(seed, work, i, &off, false)?.0)
    })?;
    Ok(harness::summarize(&iters))
}

/// The traced run: the sweep untraced and again traced, a traced sweep of
/// the same jobs with checkpoints (its checkpoint writes give
/// `engine.checkpoint_write_us`), the per-layer probes on a random n = 60
/// start and a chain's configuration after one job's budget, and the
/// `sops-serve` probe.
///
/// # Errors
///
/// An engine set-up, artifact I/O or daemon error.
pub fn trace(seed: u64, work: &Path, tracer: &Tracer) -> Result<RunOut, String> {
    let (plain, _) = iteration(seed, work, 0, &Tracer::new(false), false)?;
    let (traced, run) = iteration(seed, work, 1, tracer, false)?;
    let (checkpointed, ckpt_run) = iteration(seed, work, 2, tracer, true)?;
    let overhead = harness::trace_overhead(plain.wall_s, traced.wall_s);
    let mut out = harness::summarize(&[traced]);
    out.attempted += checkpointed.attempted;
    out.failed += checkpointed.failed;
    out.problems.extend(checkpointed.problem);
    out.metrics.set("bench.trace_overhead_frac", overhead);
    sweep::engine_layer(&run, &mut out.metrics);
    out.metrics.set(
        "engine.checkpoint_write_us",
        sweep::checkpoint_write_us(&ckpt_run),
    );

    let start = Shape::Random
        .build(60, seed)
        .map_err(|e| format!("random start: {e}"))?;
    let mut chain =
        CompressionChain::from_seed(start.clone(), 4.0, seed).expect("valid chain start");
    chain.run(STEPS);
    let m = &mut out.metrics;
    probes::lattice_and_system(&[&start, chain.system()], m);
    probes::samplers(&start, 4.0, seed, 200_000, m);
    probes::snapshots(&start, 4.0, seed, STEPS, m);

    let serve = serve_probe::run(seed, work, tracer, m)?;
    out.attempted += serve.attempted;
    out.failed += serve.failed;
    out.problems.extend(serve.problems);
    out.metrics.set(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    Ok(out)
}
