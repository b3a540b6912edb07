//! The large-spiral probe of the traced compress-line run: the
//! `sops-cli local --shape spiral --shards` path as library calls.
//! `Shape::Spiral.build(20 000)` → `ShardedLocalRunner::from_seed` → 10
//! chunks of `run_rounds_with` on one worker, sampling
//! `tail_system().perimeter()` after each, then the round ladder: the flat
//! reference and the sharded machinery on 1 and 2 workers. Both the
//! chunked 1-worker run and the 2-worker run must end in the flat
//! reference's state.
//!
//! It is a probe, not a workload with end-to-end metrics: on a 2-vCPU host
//! shared with other tenants its rate and its deterministic spiral build
//! moved together by up to 35% between runs (build 2.0–2.7 s), so ten runs
//! spread beyond any regression bound.

use std::time::Instant;

use sops::core::ShardedLocalRunner;
use sops::system::ParticleSystem;
use sops_engine::{testkit::fnv, PoolExecutor, Shape};

use crate::report::Metrics;
use crate::trace::Tracer;
use crate::{checks, stats};

const N: usize = 20_000;
const LAMBDA: f64 = 4.0;
const CHUNKS: u64 = 10;
const CHUNK_ROUNDS: u64 = 20;

/// Wall milliseconds per round of `run` on a fresh runner from `start`,
/// and the runner afterwards.
fn round_ms(
    start: &ParticleSystem,
    seed: u64,
    run: impl Fn(&mut ShardedLocalRunner),
) -> (f64, ShardedLocalRunner) {
    let mut runner = ShardedLocalRunner::from_seed(start, LAMBDA, seed).expect("valid start");
    let t = Instant::now();
    run(&mut runner);
    (
        t.elapsed().as_secs_f64() * 1e3 / CHUNK_ROUNDS as f64,
        runner,
    )
}

/// Runs the probe and records `system.spiral_s`, `core.sharded.*` and
/// `sharded_rounds_per_s` into `m`.
///
/// # Errors
///
/// A start shape or runner that cannot be built, or a sharded run (on 1 or
/// 2 workers) whose final state differs from the flat reference.
pub fn run(seed: u64, tracer: &Tracer, m: &mut Metrics) -> Result<(), String> {
    let t = Instant::now();
    let start = tracer.span("system.spiral", None, 0, |_| Shape::Spiral.build(N, seed));
    let start = start.map_err(|e| format!("spiral start: {e}"))?;
    m.set("system.spiral_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let mut runner = tracer
        .span("core.sharded.from_seed", None, 0, |_| {
            ShardedLocalRunner::from_seed(&start, LAMBDA, seed)
        })
        .map_err(|e| format!("sharded runner: {e}"))?;
    m.set("core.sharded.init_ms", t.elapsed().as_secs_f64() * 1e3);

    let pool = PoolExecutor::new(1);
    let mut rates = Vec::new();
    let mut tail_ms = Vec::new();
    for chunk in 0..CHUNKS {
        let t = Instant::now();
        tracer.span("core.sharded.run_rounds_with", None, chunk, |_| {
            runner.run_rounds_with(CHUNK_ROUNDS, &pool);
        });
        rates.push(CHUNK_ROUNDS as f64 / t.elapsed().as_secs_f64());
        let t = Instant::now();
        let perimeter = tracer.span("core.sharded.tail_sample", None, chunk, |_| {
            runner.tail_system().perimeter()
        });
        std::hint::black_box(perimeter);
        tail_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    m.set("sharded_rounds_per_s", stats::median(&rates));
    m.set("core.sharded.tail_sample_ms", stats::median(&tail_ms));

    let mut reference =
        ShardedLocalRunner::from_seed(&start, LAMBDA, seed).expect("the same start builds");
    reference.run_rounds(CHUNKS * CHUNK_ROUNDS);
    checks::same_fnv(
        fnv(runner.snapshot().as_bytes()),
        fnv(reference.snapshot().as_bytes()),
    )?;

    let (flat, reference) = round_ms(&start, seed, |r| r.run_rounds(CHUNK_ROUNDS));
    let (w1, _) = round_ms(&start, seed, |r| {
        r.run_rounds_with(CHUNK_ROUNDS, &PoolExecutor::new(1));
    });
    let (w2, sharded) = round_ms(&start, seed, |r| {
        r.run_rounds_with(CHUNK_ROUNDS, &PoolExecutor::new(2));
    });
    checks::same_fnv(
        fnv(sharded.snapshot().as_bytes()),
        fnv(reference.snapshot().as_bytes()),
    )?;
    m.set("core.sharded.flat_round_ms", flat);
    m.set("core.sharded.round_ms.w1", w1);
    m.set("core.sharded.round_ms.w2", w2);
    m.set("core.sharded.efficiency", flat / w2);
    Ok(())
}
