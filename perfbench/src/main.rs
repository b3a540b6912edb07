//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <compress-line|sweep-churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Every input (experiment TOML, start
//! shape, submissions) is generated from `--seed`. With `--trace 0` the
//! last stdout line is a JSON object carrying every end-to-end metric;
//! with `--trace 1` the workload runs again with spans around each call
//! into the workspace crates and the line carries the per-layer metrics,
//! while the spans go to `.perfbench/spans/`. The exit code is non-zero
//! when an output check fails. See `perfbench/README.md`.

mod calib;
mod checks;
mod harness;
mod probes;
mod report;
mod stats;
mod sweep;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::RunOut;
use trace::Tracer;

/// Where the benchmark writes: relative to the directory it runs in.
const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args, work: &std::path::Path, tracer: &Tracer) -> Result<RunOut, String> {
    use workloads::{compress_line, sweep_churn};
    match (args.workload.as_str(), args.trace) {
        ("compress-line", false) => compress_line::measure(args.seed, args.seconds),
        ("compress-line", true) => compress_line::trace(args.seed, tracer),
        ("sweep-churn", false) => sweep_churn::measure(args.seed, args.seconds, work),
        ("sweep-churn", true) => sweep_churn::trace(args.seed, work, tracer),
        (other, _) => Err(format!(
            "unknown workload {other} (one of {})",
            workloads::NAMES.join(", ")
        )),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(workloads::serve_probe::DAEMON_ARG) {
        return workloads::serve_probe::daemon_main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(OUT_DIR).join(format!(
        "work-{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let tracer = Tracer::new(args.trace);
    let result = run(&args, &work, &tracer);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(OUT_DIR); // only when nothing else is left

    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let path = PathBuf::from(OUT_DIR)
            .join("spans")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = trace::write_jsonl(&path, &tracer.spans()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("spans: {}", path.display());
    }
    let names: Vec<(&str, &str)> = if args.trace {
        report::PER_LAYER
            .iter()
            .chain(report::WORKLOAD)
            .copied()
            .collect()
    } else {
        report::END_TO_END.to_vec()
    };
    for (name, unit) in report::END_TO_END
        .iter()
        .chain(report::WORKLOAD)
        .chain(report::PER_LAYER)
    {
        if let Some(v) = out.metrics.get(name) {
            println!("{name} = {} {unit}", report::number(v));
        }
    }
    for problem in &out.problems {
        eprintln!("perfbench: output check failed: {problem}");
    }
    let correct = out.problems.is_empty();
    println!(
        "{}",
        report::result_line(
            correct,
            out.attempted.max(1),
            out.failed,
            &out.metrics,
            &names
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
