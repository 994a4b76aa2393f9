//! Loopback integration tests: a real daemon on an ephemeral port, real
//! protocol clients, and the two determinism guarantees the service
//! inherits from the scenario pipeline —
//!
//! 1. streaming a submitted grid is **byte-identical** to the offline
//!    `gncg grid` JSONL file for the same spec, and
//! 2. re-submitting the same grid completes entirely from the result
//!    cache (zero new cells simulated) with, again, identical bytes.

use std::fs;
use std::path::PathBuf;

use gncg_service::{Client, Server, ServiceConfig};
use gncg_suite::grid::run_grid;
use gncg_suite::scenario::{CertifyMode, RuleSpec, ScenarioSpec, SchedSpec};

fn tmp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gncg-loopback-tests-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "loopback".into(),
        hosts: vec!["unit".into(), "onetwo".into(), "r2".into()],
        ns: vec![5, 6],
        alphas: vec![0.5, 2.0],
        rules: vec![RuleSpec::Greedy],
        schedulers: vec![SchedSpec::RoundRobin, SchedSpec::Random],
        seeds: vec![0, 1],
        max_rounds: 200,
        base_seed: 11,
        certify: CertifyMode::Full,
        ..ScenarioSpec::default()
    }
}

fn start_server(cfg: ServiceConfig) -> (Server, String) {
    let server = Server::start("127.0.0.1:0", cfg).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    (server, addr)
}

#[test]
fn submit_matches_offline_grid_and_resubmit_is_all_cache_hits() {
    let (server, addr) = start_server(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let s = spec();
    let total = s.cell_count();
    assert!(total >= 48, "spec must be a real grid, got {total}");

    // Offline reference bytes.
    let offline = tmp_dir().join("offline.jsonl");
    run_grid(&s, &offline, false).unwrap();
    let reference = fs::read_to_string(&offline).unwrap();

    // First submission: everything is simulated, bytes match offline.
    let mut client = Client::connect(&addr).unwrap();
    let mut first = Vec::new();
    let (ack1, sum1) = client.submit_and_stream(&s, &mut first).unwrap();
    assert_eq!(ack1.cells, total);
    assert_eq!(sum1.cells, total);
    assert_eq!(sum1.cache_hits + sum1.simulated, total);
    assert_eq!(sum1.simulated, total, "cold cache simulates every cell");
    assert_eq!(
        String::from_utf8(first).unwrap(),
        reference,
        "streamed bytes must equal the offline grid file"
    );

    // Second submission (fresh connection): 100% cache hits, same bytes.
    let mut client2 = Client::connect(&addr).unwrap();
    let mut second = Vec::new();
    let (ack2, sum2) = client2.submit_and_stream(&s, &mut second).unwrap();
    assert_ne!(ack2.job, ack1.job);
    assert_eq!(sum2.cache_hits, total, "warm cache serves every cell");
    assert_eq!(sum2.simulated, 0, "no new cells simulated on re-submission");
    assert_eq!(String::from_utf8(second).unwrap(), reference);

    // Job status agrees with the stream summaries.
    let st = client.job_status(ack2.job).unwrap();
    assert_eq!(st.state, "done");
    assert_eq!((st.done, st.total), (total, total));
    assert_eq!((st.cache_hits, st.simulated), (total, 0));

    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn tail_resorts_to_stream_identical_bytes() {
    let (server, addr) = start_server(ServiceConfig {
        workers: 4,
        ..ServiceConfig::default()
    });
    let s = spec();
    let total = s.cell_count();

    // Offline reference bytes.
    let offline = tmp_dir().join("tail-offline.jsonl");
    run_grid(&s, &offline, false).unwrap();
    let reference = fs::read_to_string(&offline).unwrap();

    // Tail a job submitted moments earlier: lines arrive as workers
    // finish them (any order), the client re-sorts — final bytes equal
    // the in-order stream's, which equal the offline grid file's.
    let mut client = Client::connect(&addr).unwrap();
    let ack = client.submit(&s).unwrap();
    let mut tailed = Vec::new();
    let sum = client.tail_to(ack.job, &mut tailed).unwrap();
    assert_eq!(sum.cells, total);
    assert_eq!(sum.cache_hits + sum.simulated, total);
    assert_eq!(String::from_utf8(tailed).unwrap(), reference);

    // Tailing the finished job again replays every line (already landed,
    // one burst) with identical bytes; so does a plain stream.
    let mut again = Vec::new();
    client.tail_to(ack.job, &mut again).unwrap();
    assert_eq!(String::from_utf8(again).unwrap(), reference);
    let mut streamed = Vec::new();
    client.stream_to(ack.job, &mut streamed).unwrap();
    assert_eq!(String::from_utf8(streamed).unwrap(), reference);

    // Unknown jobs get a clean protocol error.
    let mut sink = Vec::new();
    assert!(client.tail_to(999, &mut sink).is_err());

    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn cache_counters_accumulate_for_the_daemon_lifetime() {
    let (server, addr) = start_server(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();
    let small = ScenarioSpec {
        hosts: vec!["unit".into()],
        ns: vec![5],
        alphas: vec![0.5, 2.0],
        schedulers: vec![SchedSpec::RoundRobin],
        seeds: vec![0, 1],
        ..spec()
    };
    let total = small.cell_count();

    // Cold daemon: every lookup misses.
    let mut sink = Vec::new();
    client.submit_and_stream(&small, &mut sink).unwrap();
    let st1 = client.daemon_status().unwrap();
    assert_eq!(st1.cache_hits, 0, "cold cache cannot hit");
    assert_eq!(st1.cache_misses, total as u64);
    assert_eq!(st1.cache_entries, total);

    // Re-submission: the same lookups now hit; both counters keep
    // accumulating across jobs — they are daemon-lifetime, not per-job.
    let mut sink = Vec::new();
    client.submit_and_stream(&small, &mut sink).unwrap();
    let st2 = client.daemon_status().unwrap();
    assert_eq!(st2.cache_hits, total as u64);
    assert_eq!(st2.cache_misses, total as u64, "misses never reset");

    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn overlapping_grids_share_the_cache() {
    let (server, addr) = start_server(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();
    let small = ScenarioSpec {
        alphas: vec![2.0],
        seeds: vec![0, 1],
        ..spec()
    };
    let mut sink = Vec::new();
    let (_, cold) = client.submit_and_stream(&small, &mut sink).unwrap();
    assert_eq!(cold.simulated, small.cell_count());

    // A superset grid: the α=2.0 half is already cached; only the α=0.5
    // half is new work. (Cell seeds are index-based, so the shared cells
    // must occupy the same expansion positions for digests to coincide —
    // they do here because α is the innermost *shared* axis prefix.)
    let sup = ScenarioSpec {
        alphas: vec![2.0],
        seeds: vec![0, 1, 2, 3],
        ..spec()
    };
    let mut sink2 = Vec::new();
    let (_, warm) = client.submit_and_stream(&sup, &mut sink2).unwrap();
    assert_eq!(warm.cells, sup.cell_count());
    assert!(
        warm.cache_hits > 0,
        "expansion-aligned cells must be served from cache"
    );
    assert!(warm.simulated < sup.cell_count());

    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn disk_cache_persists_across_daemon_restarts() {
    let cache = tmp_dir().join("daemon.cache");
    let _ = fs::remove_file(&cache);
    let s = spec();
    let total = s.cell_count();

    let (server, addr) = start_server(ServiceConfig {
        workers: 2,
        cache_path: Some(cache.clone()),
        ..ServiceConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();
    let mut first = Vec::new();
    let (_, sum) = client.submit_and_stream(&s, &mut first).unwrap();
    assert_eq!(sum.simulated, total);
    client.shutdown().unwrap();
    server.wait();

    // A fresh daemon over the same cache file serves everything from disk.
    let (server, addr) = start_server(ServiceConfig {
        workers: 2,
        cache_path: Some(cache),
        ..ServiceConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();
    let mut second = Vec::new();
    let (_, sum) = client.submit_and_stream(&s, &mut second).unwrap();
    assert_eq!(sum.simulated, 0, "restarted daemon reuses the disk cache");
    assert_eq!(sum.cache_hits, total);
    assert_eq!(first, second);
    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn oversized_grids_are_refused_before_expansion() {
    let (server, addr) = start_server(ServiceConfig {
        workers: 1,
        max_job_cells: 4,
        ..ServiceConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();
    let err = client.submit(&spec()).unwrap_err();
    assert!(err.contains("too large"), "{err}");
    // In-cap submissions still work on the same daemon.
    let small = ScenarioSpec {
        hosts: vec!["unit".into()],
        ns: vec![5],
        alphas: vec![2.0],
        schedulers: vec![SchedSpec::RoundRobin],
        seeds: vec![0],
        ..spec()
    };
    let mut sink = Vec::new();
    let (_, sum) = client.submit_and_stream(&small, &mut sink).unwrap();
    assert_eq!(sum.cells, small.cell_count());
    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn non_positive_alpha_is_refused_before_the_journal() {
    let dir = tmp_dir().join("alpha");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("jobs.journal");
    let cfg = || ServiceConfig {
        workers: 1,
        journal_path: Some(journal.clone()),
        ..ServiceConfig::default()
    };
    let small = ScenarioSpec {
        hosts: vec!["unit".into()],
        ns: vec![5],
        alphas: vec![2.0],
        schedulers: vec![SchedSpec::RoundRobin],
        seeds: vec![0],
        ..spec()
    };
    let (server, addr) = start_server(cfg());
    let mut client = Client::connect(&addr).unwrap();
    for alpha in [0.0, -1.0] {
        let bad = ScenarioSpec {
            alphas: vec![2.0, alpha],
            ..small.clone()
        };
        let err = client.submit(&bad).unwrap_err();
        assert!(err.contains("must be positive"), "{err}");
    }
    assert!(
        !fs::read_to_string(&journal).unwrap().contains("submit"),
        "a refused submit must never reach the journal"
    );
    // The daemon keeps serving on the same connection.
    client.ping().unwrap();
    let mut sink = Vec::new();
    let (ack, sum) = client.submit_and_stream(&small, &mut sink).unwrap();
    assert_eq!(sum.cells, small.cell_count());
    client.shutdown().unwrap();
    server.wait();

    // A restart replays nothing: the one accepted job finished.
    let (server, addr) = start_server(cfg());
    let mut client = Client::connect(&addr).unwrap();
    let next = client.submit(&small).unwrap();
    assert_eq!(next.job, ack.job + 1, "no refused submit took a job id");
    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn queue_cap_refuses_excess_jobs() {
    let (server, addr) = start_server(ServiceConfig {
        workers: 1,
        queue_cap: 0,
        ..ServiceConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();
    let err = client.submit(&spec()).unwrap_err();
    assert!(err.contains("queue full"), "{err}");
    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn oversized_request_lines_are_rejected_not_buffered() {
    use std::io::{BufRead as _, BufReader, Write as _};
    let (server, addr) = start_server(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    // A raw connection spewing >1 MiB with no newline must get an error
    // line back (not an unbounded buffer), and the daemon must survive.
    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    let chunk = vec![b'x'; 1 << 16];
    for _ in 0..20 {
        // 20 × 64 KiB > 1 MiB
        if raw.write_all(&chunk).is_err() {
            break; // server already hung up on us — also acceptable
        }
    }
    let _ = raw.flush();
    let mut reply = String::new();
    let _ = BufReader::new(&raw).read_line(&mut reply);
    if !reply.is_empty() {
        assert!(reply.contains("too long"), "{reply}");
    }
    drop(raw);
    // The daemon still serves well-formed clients afterwards.
    let mut client = Client::connect(&addr).unwrap();
    client.ping().unwrap();
    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn status_cancel_and_errors_speak_the_protocol() {
    let (server, addr) = start_server(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();
    client.ping().unwrap();

    // Unknown job: clean protocol errors, connection stays usable.
    assert!(client.job_status(999).is_err());
    assert!(client.cancel(999).is_err());
    let mut sink = Vec::new();
    assert!(client.stream_to(999, &mut sink).is_err());
    client.ping().unwrap();

    // Submit, let it finish, then cancel: terminal states are no-ops.
    let small = ScenarioSpec {
        hosts: vec!["unit".into()],
        ns: vec![5],
        alphas: vec![2.0],
        seeds: vec![0],
        ..spec()
    };
    let ack = client.submit(&small).unwrap();
    let mut sink = Vec::new();
    client.stream_to(ack.job, &mut sink).unwrap();
    assert_eq!(client.cancel(ack.job).unwrap(), "done");

    // Daemon-wide status reflects the work.
    let st = client.daemon_status().unwrap();
    assert_eq!(st.workers, 1);
    assert!(st.done >= 1);
    assert!(st.cache_entries >= 1);

    client.shutdown().unwrap();
    server.wait();

    // After shutdown the port no longer accepts work.
    assert!(
        Client::connect(&addr).and_then(|mut c| c.ping()).is_err(),
        "daemon must be gone after shutdown"
    );
}
