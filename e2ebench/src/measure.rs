//! The untraced run: timed passes until the run's seconds are spent,
//! each preceded by timed set-up repeats, every pass's bytes checked.

use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use gncg_suite::grid::run_grid;
use gncg_suite::scenario::{run_cells, Runner, ScenarioSpec};

use crate::check::OutputCheck;
use crate::service::run_session;
use crate::workloads::{service_schedule, Workload};

/// Set-up repeats of a compute workload timed as one block. Its set-up
/// takes microseconds, so a sample is the mean over a block, which a
/// single timer tick or interrupt does not move.
pub const SETUP_BLOCK_REPS: usize = 40;
/// Set-up blocks timed before every grid pass. Spreading the samples
/// over the whole run, as the passes are spread, keeps `setup_s` from
/// resting on the host's speed in the run's first few milliseconds.
pub const SETUP_BLOCKS_PER_PASS: usize = 25;

/// The raw samples behind the end-to-end metrics.
#[derive(Debug, Default)]
pub struct Samples {
    /// Set-up times, s.
    pub setup_s: Vec<f64>,
    /// Timed-pass walls, s.
    pub wall_s: Vec<f64>,
    /// Job latencies, ms: one whole grid of a compute workload, one cold
    /// submit of `service-mix`.
    pub job_ms: Vec<f64>,
}

/// Reads a whole output file.
pub(crate) fn read(path: &Path) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// The offline JSONL bytes of every spec, one string per spec.
pub fn offline_lines(specs: &[ScenarioSpec]) -> Result<Vec<String>, String> {
    specs
        .iter()
        .map(|spec| {
            Ok(run_cells(spec)?
                .iter()
                .map(|r| r.to_jsonl() + "\n")
                .collect())
        })
        .collect()
}

/// Measures a compute workload: until the seconds are spent, grid passes
/// through `run_grid` (each a `wall_s` sample; the whole grid is the
/// offline job, so also a job sample), each after
/// [`SETUP_BLOCKS_PER_PASS`] timed set-up blocks.
pub fn compute(
    workload: Workload,
    seed: u64,
    seconds: f64,
    dir: &Path,
    check: &mut OutputCheck,
) -> Result<Samples, String> {
    let spec = workload.specs(seed).remove(0);
    let out = dir.join("grid.jsonl");
    let mut s = Samples::default();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds || s.wall_s.is_empty() {
        for _ in 0..SETUP_BLOCKS_PER_PASS {
            let t = Instant::now();
            for _ in 0..SETUP_BLOCK_REPS {
                spec.validate()?;
                let cells = spec.expand();
                let manifest = spec.to_manifest();
                let runner = Runner::new();
                black_box((&cells, &manifest, &runner));
            }
            s.setup_s
                .push(t.elapsed().as_secs_f64() / SETUP_BLOCK_REPS as f64);
        }
        let t = Instant::now();
        run_grid(&spec, &out, false)?;
        let wall = t.elapsed().as_secs_f64();
        s.wall_s.push(wall);
        s.job_ms.push(wall * 1e3);
        eprintln!("grid pass {wall:.3} s");
        check.check_pass("grid pass", &read(&out)?);
    }
    Ok(s)
}

/// Measures `service-mix`: whole sessions, each on a fresh daemon, until
/// the seconds are spent. Every streamed job is checked against the
/// offline bytes of its spec.
pub fn service_mix(
    seed: u64,
    seconds: f64,
    dir: &Path,
    check: &mut OutputCheck,
) -> Result<Samples, String> {
    let specs = Workload::ServiceMix.specs(seed);
    let schedule = service_schedule(seed);
    let mut s = Samples::default();
    let mut offline: Option<Vec<String>> = None;
    let started = Instant::now();
    for i in 0.. {
        let session = run_session(&specs, &schedule, &dir.join(format!("session-{i}")), false)?;
        s.setup_s.push(session.setup_s);
        s.wall_s.push(session.wall_s);
        s.job_ms.extend(session.totals_ms(false));
        eprintln!("session {i}: wall {:.3} s", session.wall_s);
        let offline = match &mut offline {
            Some(o) => o,
            None => {
                let o = offline_lines(&specs)?;
                check.check_pass("offline run_cells", &o.concat());
                offline.insert(o)
            }
        };
        session.check(check, offline);
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Ok(s)
}
