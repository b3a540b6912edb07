//! Drives one experiment through the engine's public session API on a
//! given number of workers, timing each call from outside.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sops_engine::{
    CheckpointConfig, EngineConfig, ExperimentSpec, JobSpec, SweepReport, SweepSession,
};

use crate::report::Metrics;
use crate::stats;
use crate::trace::{SpanId, Tracer};

/// Worker threads of a sweep that uses the whole host (2 cores).
pub const THREADS: usize = 2;

/// Workers of each `local-sharded` job. With 2 shards every color step of
/// a sharded job spawned and joined a 2-worker pool beside the sweep's own
/// 2 workers, so up to four threads shared two cores and sweep-churn's
/// repetition time swung between 0.16 and 0.28 s across runs (0.105–0.117
/// s with 1 shard, interleaved). The pooled sharded step is timed in the
/// spiral probe instead.
pub const SHARDS: usize = 1;

/// One job's `run_pending` call.
#[derive(Clone, Debug)]
pub struct JobTime {
    /// The job.
    pub spec: JobSpec,
    /// Wall time of its `run_pending` call.
    pub secs: f64,
}

/// A finished sweep with the time of each call into the engine.
pub struct SweepRun {
    /// The engine's report.
    pub report: SweepReport,
    /// Every `run_pending` call, in completion order.
    pub jobs: Vec<JobTime>,
    /// `ExperimentSpec::parse` + `jobs()`.
    pub parse_s: f64,
    /// `SweepSession::open`.
    pub open_s: f64,
    /// First job started → last job returned.
    pub job_phase_s: f64,
    /// `SweepSession::finish`.
    pub finish_s: f64,
    /// Worker threads that called `run_pending`.
    pub workers: usize,
}

impl SweepRun {
    /// Set-up before the first step: parse, open, and each job's
    /// construction (the engine's `phase.setup_ns` counter).
    pub fn setup_s(&self) -> f64 {
        self.parse_s + self.open_s + self.report.metrics.counter("phase.setup_ns") as f64 / 1e9
    }

    /// Summed `run_pending` wall.
    pub fn busy_s(&self) -> f64 {
        self.jobs.iter().map(|j| j.secs).sum()
    }
}

/// Parses `toml`, opens its session under `cfg` (`workers` threads and
/// [`SHARDS`] are set here, and the file's `[checkpoint]` section applies as under
/// `sops-cli run`), runs every pending job on `workers` threads, and
/// finishes.
///
/// # Errors
///
/// A parse or engine set-up error, as text.
pub fn run(
    toml: &str,
    workers: usize,
    mut cfg: EngineConfig,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<SweepRun, String> {
    cfg.threads = workers;
    cfg.shards = SHARDS;
    let t = Instant::now();
    let spec = tracer.span("engine.parse", parent, 0, |_| ExperimentSpec::parse(toml));
    let spec = spec.map_err(|e| format!("experiment parse error: {e}"))?;
    let jobs = spec.jobs();
    let parse_s = t.elapsed().as_secs_f64();
    cfg.experiment = Some(spec.name.clone());
    if let Some(ck) = &spec.checkpoint {
        cfg.checkpoint = Some(CheckpointConfig::new(&ck.dir, ck.every));
    }

    let t = Instant::now();
    let session = tracer
        .span("engine.open", parent, 0, |_| SweepSession::open(jobs, &cfg))
        .map_err(|e| format!("SweepSession::open: {e}"))?;
    let open_s = t.elapsed().as_secs_f64();

    let next = AtomicUsize::new(0);
    let times: Mutex<Vec<JobTime>> = Mutex::new(Vec::new());
    let t = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let pos = next.fetch_add(1, Ordering::SeqCst);
                let Some(&spec) = session.pending().get(pos) else {
                    break;
                };
                let started = Instant::now();
                tracer.span("engine.run_pending", parent, pos as u64, |_| {
                    session.run_pending(pos);
                });
                let secs = started.elapsed().as_secs_f64();
                times
                    .lock()
                    .expect("job timings poisoned by a panic")
                    .push(JobTime { spec, secs });
            });
        }
    });
    let job_phase_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let report = tracer
        .span("engine.finish", parent, 0, |_| session.finish())
        .map_err(|e| format!("SweepSession::finish: {e}"))?;
    let finish_s = t.elapsed().as_secs_f64();
    Ok(SweepRun {
        report,
        jobs: times.into_inner().expect("job timings poisoned by a panic"),
        parse_s,
        open_s,
        job_phase_s,
        finish_s,
        workers,
    })
}

/// Mean wall of one checkpoint write, from the engine's counters (0 when
/// the sweep wrote none).
pub fn checkpoint_write_us(run: &SweepRun) -> f64 {
    let writes = run.report.metrics.counter("phase.checkpoint_write_calls");
    run.report.metrics.counter("phase.checkpoint_write_ns") as f64 / 1e3 / writes.max(1) as f64
}

/// The `engine.*` per-layer metrics of one traced sweep: the benchmark's
/// own call timings plus the counters the engine already reports.
pub fn engine_layer(run: &SweepRun, m: &mut Metrics) {
    m.set("engine.parse_us", run.parse_s * 1e6);
    m.set("engine.open_ms", run.open_s * 1e3);
    m.set("engine.finish_ms", run.finish_s * 1e3);
    let job_ms: Vec<f64> = run.jobs.iter().map(|j| j.secs * 1e3).collect();
    m.set("engine.job_ms.p50", stats::median(&job_ms));
    m.set("engine.job_ms.p95", stats::tail(&job_ms));
    let busy_s = run.busy_s();
    let step_ns: u64 = run
        .report
        .metrics
        .counters()
        .filter(|(name, _)| name.starts_with("time.step."))
        .map(|(_, v)| v)
        .sum();
    m.set(
        "engine.job_overhead_frac",
        1.0 - step_ns as f64 / 1e9 / busy_s,
    );
    m.set("engine.checkpoint_write_us", checkpoint_write_us(run));
    m.set(
        "engine.busy_frac",
        busy_s / (run.workers as f64 * run.job_phase_s),
    );
}
