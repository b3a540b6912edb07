//! `compress-line`: the paper's headline experiment (Fig. 2) as a sweep.
//! Chain `M` and `chain-kmc` jobs start from a line at λ = 4 and run to
//! their first α-compression; algorithm `A` jobs run a fixed round budget.
//! Nearly all time is in the core/system/lattice hot loops.

use std::time::Instant;

use sops::core::CompressionChain;
use sops::system::{shapes, ParticleSystem};
use sops_engine::{Algorithm, EngineConfig, JobSpec};

use crate::calib::Kernel;
use crate::harness::{self, Iter, RunOut};
use crate::sweep::{self, SweepRun};
use crate::trace::Tracer;
use crate::workloads::spiral_probe;
use crate::{checks, probes};

const N: usize = 100;
const LAMBDA: f64 = 4.0;
const ALPHA: f64 = 1.5;
/// Chain-sampler step budget; first hits land near 3M steps at n = 100.
const BUDGET: u64 = 200_000_000;
/// Jobs per chain sampler (chain M and chain-kmc) per sweep: the sweep's
/// total first-hit time varies little between seeds.
const REPS: u64 = 10;
/// Worker threads of each sweep. On a 2-vCPU host shared with other
/// tenants one worker drifts less than two, and the reference kernel that
/// takes out the drift runs on one thread. Over five seeds run in turn with
/// each, the median chain rate ranged over 20% of its median on one worker
/// and 35% on two.
const WORKERS: usize = 1;
/// Algorithm `A` jobs and their round budget.
const LOCAL_REPS: u64 = 2;
const LOCAL_ROUNDS: u64 = 1_500;
/// Sweeps run at least.
const MIN_ITERS: usize = 3;

fn experiment(seed: u64) -> String {
    format!(
        "name = \"compress-line\"\nseed = {seed}\nshapes = [\"line\"]\nns = [{N}]\nlambdas = [{LAMBDA}]\n\
         \n[[grid]]\nalgorithms = [\"chain\", \"chain-kmc\"]\nreps = {REPS}\nsteps = {BUDGET}\n\
         samples = 1\nuntil_alpha = {ALPHA}\n\
         \n[[grid]]\nalgorithms = [\"local\"]\nreps = {LOCAL_REPS}\nsteps = {LOCAL_ROUNDS}\nsamples = 4\n"
    )
}

/// Work units per second of each job `keep` selects.
fn job_rates(run: &SweepRun, keep: impl Fn(&JobSpec) -> bool) -> Vec<f64> {
    run.jobs
        .iter()
        .filter(|j| keep(&j.spec))
        .filter_map(|j| Some(run.report.result_for(j.spec.id)?.work_done as f64 / j.secs))
        .collect()
}

fn iteration(seed: u64, tracer: &Tracer) -> Result<(Iter, SweepRun), String> {
    let t = Instant::now();
    let run = tracer.span("bench.iteration", None, seed, |p| {
        sweep::run(
            &experiment(seed),
            WORKERS,
            EngineConfig::default(),
            tracer,
            p,
        )
    })?;
    let wall_s = t.elapsed().as_secs_f64();
    let check = checks::compress_line(&run.report);

    let chain = job_rates(&run, |s| matches!(s.algorithm, Algorithm::Chain(_)));
    let iter = Iter {
        wall_s,
        setup_s: run.setup_s(),
        rates: chain.clone(),
        headline: vec![
            ("chain_steps_per_s", chain),
            (
                "kmc_steps_per_s",
                job_rates(&run, |s| matches!(s.algorithm, Algorithm::ChainKmc(_))),
            ),
            (
                "local_rounds_per_s",
                job_rates(&run, |s| matches!(s.algorithm, Algorithm::Local)),
            ),
        ],
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
/// An engine set-up error.
pub fn measure(seed: u64, seconds: f64) -> Result<RunOut, String> {
    let off = Tracer::new(false);
    let iters = harness::repeat_for(seconds, MIN_ITERS, Kernel::Chain, || {
        Ok(iteration(seed, &off)?.0)
    })?;
    Ok(harness::summarize(&iters))
}

/// The traced run: the sweep untraced and again traced, the per-layer
/// probes on the line start and a chain's first α-compressed configuration,
/// and the large-spiral probe.
///
/// # Errors
///
/// An engine set-up error.
pub fn trace(seed: u64, tracer: &Tracer) -> Result<RunOut, String> {
    let (plain, _) = iteration(seed, &Tracer::new(false))?;
    let (traced, run) = iteration(seed, tracer)?;
    let overhead = harness::trace_overhead(plain.wall_s, traced.wall_s);
    let mut out = harness::summarize(&[traced]);
    let m = &mut out.metrics;
    m.set("bench.trace_overhead_frac", overhead);
    sweep::engine_layer(&run, m);

    let start = ParticleSystem::connected(shapes::line(N)).expect("a line is connected");
    let mut chain =
        CompressionChain::from_seed(start.clone(), LAMBDA, seed).expect("valid chain start");
    chain
        .run_until_compressed(ALPHA, BUDGET)
        .ok_or("the probe chain found no α-compression")?;
    probes::lattice_and_system(&[&start, chain.system()], m);
    probes::samplers(&start, LAMBDA, seed, 1_000_000, m);
    out.attempted += 1;
    if let Err(e) = spiral_probe::run(seed, tracer, m) {
        out.failed += 1;
        out.problems.push(e);
    }
    Ok(out)
}
