//! Output checks, run after each timed window. Each returns the first
//! problem found; a failed check makes the run exit non-zero.

use sops_engine::SweepReport;

/// The sweep ran every job, none failed and it was not interrupted.
///
/// # Errors
///
/// A description of the first missing, failed or interrupted job.
pub fn sweep_complete(report: &SweepReport) -> Result<(), String> {
    if report.interrupted {
        return Err("sweep was interrupted".into());
    }
    if let Some(f) = report.failed.first() {
        return Err(format!("job {} failed: {}", f.job, f.error));
    }
    if !report.is_complete() {
        return Err(format!(
            "{} of {} jobs have a result",
            report.results.len(),
            report.specs.len()
        ));
    }
    Ok(())
}

/// compress-line: the sweep is complete, every chain-sampler job recorded a
/// first α-hit within its budget, and every final configuration is
/// connected with no violations.
///
/// # Errors
///
/// The first job breaking one of those conditions.
pub fn compress_line(report: &SweepReport) -> Result<(), String> {
    sweep_complete(report)?;
    for (spec, result) in report.iter() {
        if spec.algorithm.is_chain_sampler() {
            match result.first_hit {
                Some(hit) if hit <= spec.total_work() => {}
                Some(hit) => {
                    return Err(format!(
                        "job {}: first hit {hit} beyond budget {}",
                        spec.id,
                        spec.total_work()
                    ))
                }
                None => {
                    return Err(format!(
                        "job {}: no α-compression within {} steps",
                        spec.id,
                        spec.total_work()
                    ))
                }
            }
        }
        if !result.final_connected || result.violations != 0 {
            return Err(format!(
                "job {}: final configuration connected={} violations={}",
                spec.id, result.final_connected, result.violations
            ));
        }
    }
    Ok(())
}

/// sweep-churn: the sweep is complete and `csv` has a header plus one row
/// per job, in job order.
///
/// # Errors
///
/// The first missing, extra or out-of-order row.
pub fn sweep_csv(report: &SweepReport, csv: &str) -> Result<(), String> {
    sweep_complete(report)?;
    let mut lines = csv.lines();
    match lines.next() {
        Some(header) if header.starts_with("job,") => {}
        _ => return Err("CSV has no header row".into()),
    }
    let mut rows = 0;
    for (i, line) in lines.enumerate() {
        if !line.starts_with(&format!("{i},")) {
            return Err(format!("CSV row {i} is {line:?}"));
        }
        rows += 1;
    }
    if rows != report.specs.len() || !csv.ends_with('\n') {
        return Err(format!(
            "CSV has {rows} complete rows for {} jobs",
            report.specs.len()
        ));
    }
    Ok(())
}

/// Spiral probe: the sharded run's snapshot hash equals the flat
/// reference's.
///
/// # Errors
///
/// Both hashes when they differ.
pub fn same_fnv(sharded: u64, reference: u64) -> Result<(), String> {
    if sharded == reference {
        Ok(())
    } else {
        Err(format!(
            "sharded snapshot fnv {sharded:#018x} != flat reference {reference:#018x}"
        ))
    }
}

/// Daemon probe: the CSV fetched from the daemon is byte-identical to the
/// local run of the same experiment.
///
/// # Errors
///
/// Where the bytes first differ.
pub fn same_csv(fetched: &[u8], local: &str) -> Result<(), String> {
    let local = local.as_bytes();
    if fetched == local {
        return Ok(());
    }
    let at = fetched
        .iter()
        .zip(local)
        .position(|(a, b)| a != b)
        .unwrap_or(fetched.len().min(local.len()));
    Err(format!(
        "fetched CSV ({} bytes) differs from the local run ({} bytes) at byte {at}",
        fetched.len(),
        local.len()
    ))
}

/// Daemon probe: `wanted` fetched CSVs were compared (not fewer because
/// sweeps never came back) and no request was refused or failed.
///
/// # Errors
///
/// How many CSVs were compared, or how many requests failed.
pub fn daemon_served(compared: usize, wanted: usize, failed: usize) -> Result<(), String> {
    if compared < wanted {
        return Err(format!(
            "only {compared} of {wanted} sampled daemon CSVs could be compared"
        ));
    }
    if failed > 0 {
        return Err(format!("{failed} daemon requests were refused or failed"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sops_engine::{EngineConfig, ExperimentSpec};

    fn sweep(toml: &str) -> SweepReport {
        let spec = ExperimentSpec::parse(toml).expect("test experiment parses");
        let cfg = EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        };
        sops_engine::run_sweep(spec.jobs(), &cfg).expect("test sweep runs")
    }

    fn compress() -> SweepReport {
        sweep(
            "name = \"t\"\nseed = 3\nns = [12]\nlambdas = [4]\n\
             algorithms = [\"chain\", \"chain-kmc\", \"local\"]\n\
             steps = 200000\nsamples = 2\nuntil_alpha = 2\n",
        )
    }

    #[test]
    fn compress_line_accepts_a_good_sweep_and_flags_each_corruption() {
        let good = compress();
        compress_line(&good).expect("a healthy sweep passes");

        let mut no_hit = good.clone();
        no_hit.results[0].first_hit = None;
        assert!(compress_line(&no_hit)
            .unwrap_err()
            .contains("no α-compression"));

        let mut late = good.clone();
        late.results[1].first_hit = Some(u64::MAX);
        assert!(compress_line(&late).unwrap_err().contains("beyond budget"));

        let mut broken = good.clone();
        broken.results[2].final_connected = false;
        assert!(compress_line(&broken)
            .unwrap_err()
            .contains("connected=false"));

        let mut violated = good.clone();
        violated.results[0].violations = 1;
        assert!(compress_line(&violated)
            .unwrap_err()
            .contains("violations=1"));

        let mut short = good;
        short.results.pop();
        assert!(compress_line(&short).unwrap_err().contains("2 of 3 jobs"));
    }

    #[test]
    fn sweep_csv_flags_truncated_and_reordered_tables() {
        let report = sweep(
            "name = \"t\"\nseed = 5\nns = [10, 14]\nalgorithms = [\"chain\"]\nsteps = 500\nsamples = 2\n",
        );
        let csv = report.to_table().to_csv();
        sweep_csv(&report, &csv).expect("the engine's own CSV passes");

        let truncated = &csv[..csv.len() - 5];
        assert!(sweep_csv(&report, truncated).is_err());

        let header_only: String = csv.lines().take(2).map(|l| format!("{l}\n")).collect();
        assert!(sweep_csv(&report, &header_only)
            .unwrap_err()
            .contains("1 complete rows for 2 jobs"));

        let mut rows: Vec<&str> = csv.lines().collect();
        rows.swap(1, 2);
        let swapped = rows.join("\n") + "\n";
        assert!(sweep_csv(&report, &swapped)
            .unwrap_err()
            .contains("CSV row 0"));

        let mut failed = report.clone();
        failed.failed.push(sops_engine::JobFailure {
            job: 1,
            error: "boom".into(),
            quarantined: false,
        });
        assert!(sweep_csv(&failed, &csv)
            .unwrap_err()
            .contains("job 1 failed"));
    }

    #[test]
    fn fnv_and_csv_comparisons_flag_flipped_bytes() {
        let h = sops_engine::testkit::fnv(b"state");
        same_fnv(h, h).expect("equal hashes pass");
        assert!(same_fnv(h ^ 1, h).is_err());

        let csv = "job,n\n0,12\n";
        same_csv(csv.as_bytes(), csv).expect("equal bytes pass");
        let mut flipped = csv.as_bytes().to_vec();
        flipped[7] ^= 1;
        assert!(same_csv(&flipped, csv).unwrap_err().contains("at byte 7"));
        assert!(same_csv(&csv.as_bytes()[..9], csv)
            .unwrap_err()
            .contains("(9 bytes)"));
    }

    #[test]
    fn daemon_check_fails_when_nothing_was_compared_or_a_request_failed() {
        daemon_served(4, 4, 0).expect("a healthy daemon passes");
        assert!(daemon_served(0, 4, 0).unwrap_err().contains("only 0 of 4"));
        assert!(daemon_served(4, 4, 1)
            .unwrap_err()
            .contains("1 daemon requests"));
    }
}
