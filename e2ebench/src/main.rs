//! `gncg-e2ebench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints a run record line and, as the last line of standard output,
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. Exits 1
//! when an output check fails and 2 on an error. `--emit-reference`
//! prints the workload's `references.txt` line for the seed instead.

use std::path::{Path, PathBuf};

use gncg_e2ebench::check::{reference_line, OutputCheck};
use gncg_e2ebench::measure::{self, offline_lines};
use gncg_e2ebench::report::{result_line, run_record, Report};
use gncg_e2ebench::stats::median;
use gncg_e2ebench::trace;
use gncg_e2ebench::workloads::{Workload, DEFAULT_SEED, POOL_THREADS};

/// Scratch space for grid files, journals and caches, inside the working
/// directory; each run uses (and removes) its own subdirectory.
const WORK_DIR: &str = ".bench_work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    emit_reference: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed = Args {
        workload: Workload::LargeNAdd,
        seed: DEFAULT_SEED,
        seconds: 60.0,
        trace: false,
        emit_reference: false,
    };
    while let Some(flag) = args.next() {
        if flag == "--emit-reference" {
            parsed.emit_reference = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} '{value}': {e}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(parsed.seconds.is_finite() && parsed.seconds >= 0.0) {
                    return Err(bad(&"not a non-negative number"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(args: &Args, dir: &Path, check: &mut OutputCheck) -> Result<Report, String> {
    let s = match args.workload {
        Workload::ServiceMix => measure::service_mix(args.seed, args.seconds, dir, check)?,
        w => measure::compute(w, args.seed, args.seconds, dir, check)?,
    };
    let mut r = Report::default();
    let setup = median(&s.setup_s).ok_or("no set-up samples")?;
    let wall = median(&s.wall_s).ok_or("no timed pass")?;
    let job = median(&s.job_ms).ok_or("no job samples")?;
    r.push_sampled("setup_s", setup, "s", s.setup_s.len());
    r.push_sampled("wall_s", wall, "s", s.wall_s.len());
    let ok_frac = 1.0 - check.failed as f64 / check.attempted.max(1) as f64;
    r.push_sampled("ok_frac", ok_frac, "fraction", check.attempted);
    r.push_sampled("job_p50_ms", job, "ms", s.job_ms.len());
    Ok(r)
}

fn run(args: &Args, dir: &Path) -> Result<i32, String> {
    if args.emit_reference {
        let text = offline_lines(&args.workload.specs(args.seed))?.concat();
        println!("{}", reference_line(args.workload, args.seed, &text));
        return Ok(0);
    }
    let mut check = OutputCheck::new(args.workload, args.seed);
    let report = if args.trace {
        trace::run(args.workload, args.seed, dir, &mut check)?
    } else {
        end_to_end(args, dir, &mut check)?
    };
    println!(
        "{}",
        run_record(args.workload, args.seed, args.trace, &report.samples)
    );
    if let Some(first) = &check.first_failure {
        eprintln!(
            "gncg-e2ebench: {} of {} checks failed; first: {first}",
            check.failed, check.attempted
        );
    }
    // A traced run that measured a different program reports no numbers.
    let metrics = if args.trace && !check.ok() {
        Vec::new()
    } else {
        report.metrics
    };
    println!(
        "{}",
        result_line(check.ok(), check.attempted, check.failed, &metrics)
    );
    Ok(if check.ok() { 0 } else { 1 })
}

fn main() {
    let code = parse_args(std::env::args().skip(1)).and_then(|args| {
        rayon::configure_num_threads(POOL_THREADS)?;
        let dir = PathBuf::from(WORK_DIR).join(format!(
            "{}-{}",
            args.workload.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let result = run(&args, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        // Leaves the shared directory only if no other run is using it.
        let _ = std::fs::remove_dir(WORK_DIR);
        result
    });
    std::process::exit(code.unwrap_or_else(|e| {
        eprintln!("gncg-e2ebench: {e}");
        2
    }));
}
