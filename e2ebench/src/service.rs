//! The `service-mix` session: an in-process daemon (one worker, journal
//! and result cache in a fresh directory) and one closed-loop client
//! walking the interleaved submit schedule.

use std::path::Path;
use std::time::Instant;

use gncg_service::client::is_transport_error;
use gncg_service::json::Value;
use gncg_service::{Client, Server, ServiceConfig, StreamSummary};
use gncg_suite::scenario::ScenarioSpec;

use crate::check::OutputCheck;
use crate::workloads::{Step, DAEMON_WORKERS, POOL_THREADS};

/// Client read timeout: a submit or stream that stalls this long counts
/// as failed and ends the session.
const READ_TIMEOUT_MS: u64 = 20_000;
/// Pings timed by a probing session before its first submit.
const PROBE_PINGS: usize = 50;

/// A step that completed: its timings and streamed bytes.
#[derive(Debug)]
pub struct Completed {
    /// Submit sent → ack received.
    pub ack_ms: f64,
    /// Submit sent → last streamed line received.
    pub total_ms: f64,
    /// The streamed JSONL bytes.
    pub bytes: Vec<u8>,
    /// The stream footer's cache/simulation counts.
    pub summary: StreamSummary,
}

/// What one session measured.
#[derive(Debug)]
pub struct Session {
    /// Server start, journal and cache open, connect and first ping.
    pub setup_s: f64,
    /// The whole client session.
    pub wall_s: f64,
    /// Each scheduled step with its outcome.
    pub steps: Vec<(Step, Result<Completed, String>)>,
    /// Ping round trips in µs (probing sessions only).
    pub ping_us: Vec<f64>,
    /// The `metrics` op's snapshot after the session (probing only).
    pub metrics: Option<Value>,
}

impl Session {
    /// Submit-to-last-line times of the steps of one kind, in ms.
    pub fn totals_ms(&self, resubmit: bool) -> Vec<f64> {
        self.completed(resubmit).map(|c| c.total_ms).collect()
    }

    /// Submit-to-ack times of the steps of one kind, in ms.
    pub fn acks_ms(&self, resubmit: bool) -> Vec<f64> {
        self.completed(resubmit).map(|c| c.ack_ms).collect()
    }

    /// Ack-to-last-line times of the steps of one kind, in ms.
    pub fn streams_ms(&self, resubmit: bool) -> Vec<f64> {
        self.completed(resubmit)
            .map(|c| c.total_ms - c.ack_ms)
            .collect()
    }

    fn completed(&self, resubmit: bool) -> impl Iterator<Item = &Completed> {
        self.steps.iter().filter_map(move |(step, r)| {
            let is_resubmit = matches!(step, Step::Resubmit(_));
            r.as_ref().ok().filter(|_| is_resubmit == resubmit)
        })
    }

    /// Checks every step: its bytes must equal the offline bytes of its
    /// spec, a new spec must be simulated in full, and a resubmit must be
    /// served entirely from the cache.
    pub fn check(&self, check: &mut OutputCheck, offline: &[String]) {
        for (i, (step, result)) in self.steps.iter().enumerate() {
            let what = format!("service step {i} ({step:?})");
            match result {
                Ok(c) => {
                    let expected = &offline[step.spec()];
                    let same = c.bytes == expected.as_bytes();
                    let simulated_ok = match step {
                        Step::New(_) => c.summary.simulated == c.summary.cells,
                        Step::Resubmit(_) => c.summary.simulated == 0,
                    };
                    check.event(same && simulated_ok, || {
                        if same {
                            format!(
                                "{what}: {} of {} cells simulated",
                                c.summary.simulated, c.summary.cells
                            )
                        } else {
                            format!("{what}: streamed bytes differ from the offline run")
                        }
                    });
                }
                Err(e) => check.error(&what, e),
            }
        }
    }
}

/// Runs one session in the fresh directory `dir` (removed afterwards).
/// `probe` adds the ping and `metrics` probes of the traced run.
pub fn run_session(
    specs: &[ScenarioSpec],
    schedule: &[Step],
    dir: &Path,
    probe: bool,
) -> Result<Session, String> {
    let started = Instant::now();
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let cfg = ServiceConfig {
        workers: DAEMON_WORKERS,
        threads: POOL_THREADS,
        journal_path: Some(dir.join("jobs.journal")),
        cache_path: Some(dir.join("results.cache")),
        ..ServiceConfig::default()
    };
    let server = Server::start("127.0.0.1:0", cfg)?;
    let addr = server.local_addr().to_string();
    let connected =
        Client::connect_with(&addr, Some(READ_TIMEOUT_MS)).and_then(|mut c| c.ping().map(|()| c));
    let mut client = match connected {
        Ok(c) => c,
        Err(e) => {
            server.shutdown();
            server.wait();
            return Err(format!("cannot reach the daemon: {e}"));
        }
    };
    let setup_s = started.elapsed().as_secs_f64();
    let driven = drive(&mut client, specs, schedule, probe);
    drop(client);
    server.shutdown();
    server.wait();
    let session = driven?;
    std::fs::remove_dir_all(dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    Ok(Session { setup_s, ..session })
}

/// The session proper: probes, then every scheduled step, then the
/// metrics probe (`setup_s` is left for the caller to fill in).
fn drive(
    client: &mut Client,
    specs: &[ScenarioSpec],
    schedule: &[Step],
    probe: bool,
) -> Result<Session, String> {
    let mut ping_us = Vec::new();
    if probe {
        for _ in 0..PROBE_PINGS {
            let t = Instant::now();
            client.ping()?;
            ping_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }

    let started = Instant::now();
    let mut steps = Vec::with_capacity(schedule.len());
    let mut broken: Option<String> = None;
    for &step in schedule {
        if let Some(e) = &broken {
            steps.push((step, Err(format!("not sent: {e}"))));
            continue;
        }
        let t = Instant::now();
        let result = client.submit(&specs[step.spec()]).and_then(|ack| {
            let ack_ms = t.elapsed().as_secs_f64() * 1e3;
            let mut bytes = Vec::new();
            let summary = client.stream_to(ack.job, &mut bytes)?;
            Ok(Completed {
                ack_ms,
                total_ms: t.elapsed().as_secs_f64() * 1e3,
                bytes,
                summary,
            })
        });
        if let Err(e) = &result {
            if is_transport_error(e) {
                broken = Some(e.clone());
            }
        }
        steps.push((step, result));
    }
    let wall_s = started.elapsed().as_secs_f64();

    let metrics = if probe && broken.is_none() {
        Some(client.metrics()?)
    } else {
        None
    };
    Ok(Session {
        setup_s: 0.0,
        wall_s,
        steps,
        ping_us,
        metrics,
    })
}
