//! The `sops-serve` probe of the traced sweep-churn run: a fresh daemon
//! (2 runners, empty data dir) receiving tiny sweeps open-loop over
//! loopback at two fixed rates. Each request is timed from its due time
//! through submit, status polling, done and CSV fetch.
//!
//! It is a probe, not a workload with end-to-end metrics: every submission
//! waits on journal fsyncs in the data dir, and on a 2-core virtual host
//! with a shared virtual disk the latency medians of identical 15-second
//! runs differed by 2× (10 vs 19 ms), beyond any regression bound.
//!
//! The daemon runs in a child process: this binary re-executes itself with
//! [`DAEMON_ARG`], which binds and serves exactly as the `sops-serve`
//! binary does. Load comes from two threads holding at most one connection
//! each: a generator that submits on schedule, and a poller that follows
//! accepted sweeps to their CSV.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sops_engine::EngineConfig;
use sops_serve::{Client, ClientConfig, ServeConfig, Server};

use crate::harness;
use crate::report::Metrics;
use crate::trace::Tracer;
use crate::{checks, stats, sweep};

/// First argument that turns this binary into the daemon.
pub const DAEMON_ARG: &str = "__serve-daemon";

/// Daemon runner threads.
const WORKERS: usize = 2;
/// Admitted-but-unfinished sweeps before the daemon answers 503; far above
/// the backlog either rate builds.
const QUEUE_CAP: usize = 256;
/// Each sweep: two chain jobs of `STEPS` steps at n = 30, checkpointing
/// every `EVERY` steps.
const N: usize = 30;
const STEPS: u64 = 15_000;
const EVERY: u64 = 5_000;
/// Offered rates, sweeps per second: about 25% and 60% of what the daemon
/// completes on a 2-core host.
const RATE_LOW: f64 = 20.0;
const RATE_HIGH: f64 = 48.0;
/// Seconds spent at each rate: 100 submissions at the low rate, so that
/// its `p95` reads p90 with ten samples beyond (see [`stats::tail`]).
const PHASE_SECS: f64 = 5.0;
/// Daemon start-ups per run; the last one serves the measured phases.
const STARTS: usize = 3;
/// Latency goes unreported when the generator's p95 lateness exceeds this.
const MAX_LATE_MS: f64 = 5.0;
/// Latency charged to a refused or failed request (it misses any limit).
const MISS_MS: f64 = 10_000.0;
/// An accepted sweep not done this long after its ack counts as failed.
const GIVE_UP: Duration = Duration::from_secs(30);
/// How many sweeps per run are re-run locally to check the fetched CSV.
const CSV_CHECKS: usize = 4;
/// Pause between polling passes.
const POLL_PAUSE: Duration = Duration::from_micros(500);

/// Entry point of the daemon child: `__serve-daemon <data-dir>`.
pub fn daemon_main(args: &[String]) -> ExitCode {
    let Some(data) = args.first() else {
        eprintln!("usage: perfbench {DAEMON_ARG} <data-dir>");
        return ExitCode::from(2);
    };
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: PathBuf::from(data),
        workers: WORKERS,
        queue_cap: QUEUE_CAP,
        quiet: true,
        ..ServeConfig::default()
    };
    let server = match Server::bind(cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("sops-serve: cannot start: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("sops-serve listening on {}", server.local_addr());
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sops-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn client(addr: &str) -> Client {
    Client::new(ClientConfig {
        server: addr.to_string(),
        attempts: 1,
        backoff_ms: 0,
        timeout_ms: 10_000,
    })
}

/// A running daemon child.
struct Daemon {
    child: Child,
    addr: String,
    stderr: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Spawns a daemon on an empty `data` dir; returns it with the time from
    /// spawn to the first `/healthz` 200.
    fn start(data: &Path) -> Result<(Daemon, f64), String> {
        let _ = std::fs::remove_dir_all(data);
        std::fs::create_dir_all(data).map_err(|e| format!("{}: {e}", data.display()))?;
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let t = Instant::now();
        let mut child = Command::new(exe)
            .arg(DAEMON_ARG)
            .arg(data)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped")).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(addr) = line.strip_prefix("sops-serve listening on ") {
                        break addr.to_string();
                    }
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon exited before listening".into());
                }
            }
        };
        // Keep the pipe drained so the daemon never blocks on stderr.
        let stderr = std::thread::spawn(move || lines.for_each(drop));
        let daemon = Daemon {
            child,
            addr,
            stderr: Some(stderr),
        };
        let c = client(&daemon.addr);
        while !matches!(c.request("GET", "/healthz", None), Ok(r) if r.status == 200) {
            if t.elapsed() > Duration::from_secs(10) {
                return Err("daemon never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok((daemon, t.elapsed().as_secs_f64()))
    }

    /// `/metricsz` counter `name`.
    fn counter(&self, name: &str) -> f64 {
        client(&self.addr)
            .request("GET", "/metricsz", None)
            .ok()
            .and_then(|r| sops_telemetry::parse(&String::from_utf8_lossy(&r.body)).ok())
            .and_then(|v| v.get("counters")?.get(name)?.as_f64())
            .unwrap_or(0.0)
    }

    /// Drains the daemon and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let drained = client(&self.addr).drain();
        let t = Instant::now();
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if t.elapsed() < Duration::from_secs(20) => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => break None,
            }
        };
        if status.is_none() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
        drained?;
        match status {
            Some(s) if s.success() => Ok(()),
            Some(s) => Err(format!("daemon exited with {s}")),
            None => Err("daemon did not exit after drain".into()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// The experiment submitted as request `k`.
///
/// The daemon checkpoints into its own data dir; `dir` is where a local
/// `sops-cli run` of the same file checkpoints.
fn experiment(seed: u64, k: u64, dir: &Path) -> String {
    format!(
        "name = \"serve-probe-{k}\"\nseed = {}\nns = [{N}]\nlambdas = [4]\nalgorithms = [\"chain\"]\n\
         reps = 2\nsteps = {STEPS}\nsamples = 4\n\n[checkpoint]\ndir = \"{}\"\nevery = {EVERY}\n",
        harness::derive(seed, k),
        dir.join(format!("local-{k}")).display()
    )
}

/// Runs request `k`'s experiment locally, as `sops-cli run` would.
fn local_run(seed: u64, k: u64, work: &Path) -> Result<sweep::SweepRun, String> {
    let off = Tracer::new(false);
    let run = sweep::run(
        &experiment(seed, k, work),
        sweep::THREADS,
        EngineConfig::default(),
        &off,
        None,
    );
    let _ = std::fs::remove_dir_all(work.join(format!("local-{k}")));
    run
}

/// One request's timeline, milliseconds from its due time.
#[derive(Clone, Debug, Default)]
struct Request {
    k: u64,
    id: u64,
    due: Option<Instant>,
    late_ms: f64,
    submit_ms: f64,
    acked: Option<Instant>,
    progressed: Option<Instant>,
    done: Option<Instant>,
    status_ms: Vec<f64>,
    fetch_ms: f64,
    latency_ms: f64,
    csv: Option<Vec<u8>>,
    failed: bool,
}

/// Runs requests `first..` at `rate` per second for `secs`, waits until
/// every accepted sweep is fetched, and returns the requests in order.
fn phase(
    addr: &str,
    (seed, work): (u64, &Path),
    first: u64,
    rate: f64,
    secs: f64,
    tracer: &Tracer,
) -> Vec<Request> {
    let count = (rate * secs).round().max(1.0) as u64;
    let outstanding: Mutex<Vec<Request>> = Mutex::new(Vec::new());
    let finished: Mutex<Vec<Request>> = Mutex::new(Vec::new());
    let generating = AtomicBool::new(true);
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let c = client(addr);
            for i in 0..count {
                let k = first + i;
                let due = start + Duration::from_secs_f64(i as f64 / rate);
                while Instant::now() < due {
                    std::thread::sleep(
                        due.saturating_duration_since(Instant::now())
                            .min(Duration::from_millis(1)),
                    );
                }
                let body = experiment(seed, k, work);
                let sent = Instant::now();
                let resp = tracer.span("serve.submit", None, k, |_| {
                    c.request("POST", "/sweeps", Some(body.as_bytes()))
                });
                let acked = Instant::now();
                let mut r = Request {
                    k,
                    due: Some(due),
                    late_ms: (sent - due).as_secs_f64() * 1e3,
                    submit_ms: (acked - sent).as_secs_f64() * 1e3,
                    acked: Some(acked),
                    ..Request::default()
                };
                match resp.ok().filter(|r| r.status == 201).and_then(|r| {
                    let v = sops_telemetry::parse(&String::from_utf8_lossy(&r.body)).ok()?;
                    v.get("id")?.as_f64()
                }) {
                    Some(id) => {
                        r.id = id as u64;
                        outstanding.lock().expect("request list poisoned").push(r);
                    }
                    None => {
                        r.failed = true;
                        r.latency_ms = MISS_MS;
                        finished.lock().expect("request list poisoned").push(r);
                    }
                }
            }
            generating.store(false, Ordering::SeqCst);
        });
        scope.spawn(|| {
            let c = client(addr);
            loop {
                let batch: Vec<Request> =
                    std::mem::take(&mut *outstanding.lock().expect("request list poisoned"));
                if batch.is_empty() {
                    if !generating.load(Ordering::SeqCst) {
                        break;
                    }
                    std::thread::sleep(POLL_PAUSE);
                    continue;
                }
                let mut still = Vec::new();
                for mut r in batch {
                    let t = Instant::now();
                    let resp = tracer.span("serve.status", None, r.k, |_| {
                        c.request("GET", &format!("/sweeps/{}", r.id), None)
                    });
                    r.status_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    let body = match resp {
                        Ok(resp) if resp.status == 200 => {
                            String::from_utf8_lossy(&resp.body).into_owned()
                        }
                        _ => String::new(),
                    };
                    let now = Instant::now();
                    if r.progressed.is_none() && !body.contains("\"completed\":0,") {
                        r.progressed = Some(now);
                    }
                    if body.contains("\"state\":\"done\"") {
                        r.done = Some(now);
                        let t = Instant::now();
                        let csv = tracer.span("serve.fetch", None, r.k, |_| {
                            c.request("GET", &format!("/sweeps/{}/csv", r.id), None)
                        });
                        let end = Instant::now();
                        r.fetch_ms = (end - t).as_secs_f64() * 1e3;
                        match csv {
                            Ok(resp) if resp.status == 200 => {
                                r.latency_ms =
                                    (end - r.due.expect("set at submit")).as_secs_f64() * 1e3;
                                r.csv = Some(resp.body);
                            }
                            _ => {
                                r.failed = true;
                                r.latency_ms = MISS_MS;
                            }
                        }
                        finished.lock().expect("request list poisoned").push(r);
                    } else if body.is_empty()
                        || now.duration_since(r.acked.expect("set at submit")) > GIVE_UP
                        || body.contains("\"state\":\"failed\"")
                        || body.contains("\"state\":\"degraded\"")
                        || body.contains("\"state\":\"cancelled\"")
                    {
                        r.failed = true;
                        r.latency_ms = MISS_MS;
                        finished.lock().expect("request list poisoned").push(r);
                    } else {
                        still.push(r);
                    }
                }
                outstanding
                    .lock()
                    .expect("request list poisoned")
                    .extend(still);
                std::thread::sleep(POLL_PAUSE);
            }
        });
    });
    let mut done = finished.into_inner().expect("request list poisoned");
    done.sort_by_key(|r| r.k);
    done
}

/// The probe's operation counts and failed checks.
pub struct Outcome {
    /// Requests sent.
    pub attempted: u64,
    /// Requests refused, failed, or answered with a CSV that differs from
    /// the local run.
    pub failed: u64,
    /// CSVs that differ from the local run, too few CSVs compared, or any
    /// request refused or failed.
    pub problems: Vec<String>,
}

/// Starts a fresh daemon [`STARTS`] times on an empty data dir, then offers
/// the last one the low and the high rate for [`PHASE_SECS`] each, checks a
/// sample of fetched CSVs, and records the `serve.*`,
/// `bench.gen_late_ms.p95` and — unless the generator fell behind its
/// schedule — the `latency_*` metrics into `m`.
///
/// # Errors
///
/// A daemon that cannot be started or stopped.
pub fn run(seed: u64, work: &Path, tracer: &Tracer, m: &mut Metrics) -> Result<Outcome, String> {
    let data = work.join("serve-data");
    let mut startup_s = Vec::new();
    let mut daemon = None;
    for _ in 0..STARTS {
        if let Some(d) = daemon.take() {
            Daemon::stop(d)?;
        }
        let (d, s) = tracer.span("serve.startup", None, 0, |_| Daemon::start(&data))?;
        startup_s.push(s);
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one start");
    let low = phase(&daemon.addr, (seed, work), 0, RATE_LOW, PHASE_SECS, tracer);
    let first_high = low.len() as u64;
    let high = phase(
        &daemon.addr,
        (seed, work),
        first_high,
        RATE_HIGH,
        PHASE_SECS,
        tracer,
    );
    let http_requests = daemon.counter("http.requests");
    let http_rejected = daemon.counter("http.rejected");
    daemon.stop()?;
    let _ = std::fs::remove_dir_all(&data);

    let mut problems = Vec::new();
    let all: Vec<&Request> = low.iter().chain(&high).collect();
    let late: Vec<f64> = all.iter().map(|r| r.late_ms).collect();
    let late_p95 = stats::tail(&late);
    m.set("bench.gen_late_ms.p95", late_p95);
    if late_p95 <= MAX_LATE_MS {
        let latencies = |rs: &[Request]| -> Vec<f64> { rs.iter().map(|r| r.latency_ms).collect() };
        let (low, high) = (latencies(&low), latencies(&high));
        m.set("latency_p50_ms.low", stats::median(&low));
        m.set("latency_p95_ms.low", stats::tail(&low));
        m.set("latency_p50_ms.high", stats::median(&high));
        m.set("latency_p95_ms.high", stats::tail(&high));
    } else {
        eprintln!(
            "perfbench: serve probe invalid, latency not reported: the generator ran \
             {late_p95:.2} ms late at its tail (limit {MAX_LATE_MS} ms)"
        );
    }
    let fetched: Vec<&&Request> = all.iter().filter(|r| r.csv.is_some()).collect();
    let stride = (fetched.len() / CSV_CHECKS).max(1);
    let mut wrong = 0;
    let mut compared = 0;
    for r in fetched.iter().step_by(stride).take(CSV_CHECKS) {
        compared += 1;
        let local = local_run(seed, r.k, work).map(|run| run.report.to_table().to_csv());
        let fetched = r.csv.as_deref().unwrap_or_default();
        if let Err(e) = local.and_then(|csv| checks::same_csv(fetched, &csv)) {
            wrong += 1;
            problems.push(format!("sweep {}: {e}", r.k));
        }
    }
    let failed = all.iter().filter(|r| r.failed).count();
    if let Err(e) = checks::daemon_served(compared, CSV_CHECKS, failed) {
        problems.push(e);
    }

    let ok: Vec<&&Request> = all.iter().filter(|r| !r.failed).collect();
    let pick = |f: &dyn Fn(&Request) -> Option<f64>| -> Vec<f64> {
        ok.iter().filter_map(|r| f(r)).collect()
    };
    let submit = pick(&|r| Some(r.submit_ms));
    let wait = pick(&|r| Some((r.progressed? - r.acked?).as_secs_f64() * 1e3));
    let run = pick(&|r| Some((r.done? - r.progressed?).as_secs_f64() * 1e3));
    let status: Vec<f64> = ok
        .iter()
        .flat_map(|r| r.status_ms.iter().copied())
        .collect();
    m.set("serve.startup_ms", stats::median(&startup_s) * 1e3);
    m.set("serve.submit_ms.p50", stats::median(&submit));
    m.set("serve.submit_ms.p95", stats::tail(&submit));
    m.set("serve.queue_wait_ms.p50", stats::median(&wait));
    m.set("serve.queue_wait_ms.p95", stats::tail(&wait));
    m.set("serve.run_ms.p50", stats::median(&run));
    m.set(
        "serve.fetch_ms.p50",
        stats::median(&pick(&|r| Some(r.fetch_ms))),
    );
    m.set("serve.status_ms.p50", stats::median(&status));
    m.set(
        "serve.rejected_frac",
        http_rejected / http_requests.max(1.0),
    );
    m.set("serve.http_requests", http_requests);
    m.set("serve.http_rejected", http_rejected);
    Ok(Outcome {
        attempted: all.len() as u64,
        failed: failed as u64 + wrong,
        problems,
    })
}
