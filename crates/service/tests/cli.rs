//! The `gncg` CLI's contract: grid/resume round trips, scriptable exit
//! codes, and the certify flag (moved here from the repo-level suite when
//! the binary moved into the service crate).

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use gncg_suite::grid::{manifest_path, run_grid};
use gncg_suite::scenario::{CertifyMode, RuleSpec, ScenarioSpec, SchedSpec};

fn tmp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gncg-cli-tests-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn golden_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "golden".into(),
        hosts: vec!["unit".into(), "onetwo".into(), "tree".into(), "r2".into()],
        ns: vec![6],
        alphas: vec![0.5, 2.0],
        rules: vec![RuleSpec::Greedy, RuleSpec::Add],
        schedulers: vec![SchedSpec::RoundRobin, SchedSpec::Random],
        seeds: vec![0, 1],
        max_rounds: 300,
        base_seed: 99,
        certify: CertifyMode::Full,
        ..ScenarioSpec::default()
    }
}

fn gncg() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gncg"))
}

#[test]
fn cli_grid_then_resume_round_trips() {
    let dir = tmp_dir();
    let out = dir.join("cli.jsonl");
    let status = gncg()
        .args([
            "grid",
            "--out",
            out.to_str().unwrap(),
            "--hosts",
            "unit,onetwo",
            "--n",
            "6",
            "--alpha",
            "1.0,2.0",
            "--rules",
            "greedy",
            "--seed-count",
            "2",
            "--max-rounds",
            "200",
        ])
        .status()
        .unwrap();
    assert!(status.success());
    let text = fs::read_to_string(&out).unwrap();
    assert_eq!(text.lines().count(), 8);
    assert!(manifest_path(&out).exists());

    // Truncate to a prefix and resume via the CLI: identical final bytes.
    let cut: usize = text.lines().take(3).map(|l| l.len() + 1).sum();
    fs::OpenOptions::new()
        .write(true)
        .open(&out)
        .and_then(|f| f.set_len(cut as u64))
        .unwrap();
    let status = gncg()
        .args(["resume", "--out", out.to_str().unwrap()])
        .status()
        .unwrap();
    assert!(status.success());
    assert_eq!(fs::read_to_string(&out).unwrap(), text);
}

#[test]
fn cli_certify_flag_lands_in_manifest_and_output() {
    let dir = tmp_dir();
    let full = dir.join("certify-full.jsonl");
    let off = dir.join("certify-off.jsonl");
    for (out, mode) in [(&full, "full"), (&off, "off")] {
        let status = gncg()
            .args([
                "grid",
                "--out",
                out.to_str().unwrap(),
                "--hosts",
                "unit",
                "--n",
                "6",
                "--alpha",
                "2.0",
                "--rules",
                "greedy",
                "--seed-count",
                "1",
                "--max-rounds",
                "200",
                "--certify",
                mode,
            ])
            .status()
            .unwrap();
        assert!(status.success());
        let manifest = fs::read_to_string(manifest_path(out)).unwrap();
        assert!(manifest.contains(&format!("certify={mode}")), "{manifest}");
    }
    let full_text = fs::read_to_string(&full).unwrap();
    let off_text = fs::read_to_string(&off).unwrap();
    assert!(full_text.contains("\"certified\":true"));
    assert!(off_text.contains("\"certified\":false"));
    // The certify axis changes only the certified field.
    assert_eq!(
        full_text.replace("\"certified\":true", "\"certified\":false"),
        off_text
    );
    // An invalid mode is a usage error.
    let out_cmd = gncg()
        .args(["grid", "--out", "/dev/null", "--certify", "bogus"])
        .output()
        .unwrap();
    assert_eq!(out_cmd.status.code(), Some(2));
}

#[test]
fn cli_exit_codes_are_scriptable() {
    // Invalid args → 2.
    for args in [
        vec!["simulate", "--host", "bogus"],
        vec!["simulate", "--n", "not-a-number"],
        vec!["simulate", "--unknown-flag"],
        vec!["frobnicate"],
        vec!["grid", "--hosts", "unit"], // missing --out
        vec!["grid", "--out", "x.jsonl", "--addr", "127.0.0.1:1"], // --addr is submit-only
        vec!["submit", "--out", "x.jsonl", "--addr", "127.0.0.1:1"], // nothing listening
        vec!["status", "--addr", "127.0.0.1:1"], // nothing listening
        vec!["cancel", "--addr", "127.0.0.1:1"], // missing --job (checked first)
        vec!["tail", "--addr", "127.0.0.1:1", "--out", "x.jsonl"], // missing --job
        vec!["tail", "--addr", "127.0.0.1:1", "--job", "1"], // missing --out
        vec![],
    ] {
        let out = gncg().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
    }
    // Non-convergence → 1 (α < 1 unit dynamics cannot finish in 1 round).
    let out = gncg()
        .args([
            "simulate",
            "--host",
            "unit",
            "--n",
            "6",
            "--alpha",
            "0.4",
            "--max-rounds",
            "1",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    // Convergence → 0.
    let out = gncg()
        .args(["simulate", "--host", "unit", "--n", "6", "--alpha", "2.0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    // list-factories prints every registry key.
    let out = gncg().arg("list-factories").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for key in gncg_metrics::factory::keys() {
        assert!(text.contains(key), "missing factory {key}");
    }
}

#[test]
fn cli_tail_writes_cell_ordered_bytes() {
    // `gncg tail` against a live daemon: the re-sorted file must equal
    // the offline grid bytes for the same spec.
    use gncg_service::{Client, Server, ServiceConfig};
    let dir = tmp_dir();
    let spec = golden_spec();
    let offline = dir.join("tail-offline.jsonl");
    run_grid(&spec, &offline, false).unwrap();

    let server = Server::start(
        "127.0.0.1:0",
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let ack = client.submit(&spec).unwrap();

    let out = dir.join("tail-cli.jsonl");
    let _ = fs::remove_file(&out);
    let run = gncg()
        .args([
            "tail",
            "--addr",
            &addr,
            "--job",
            &ack.job.to_string(),
            "--out",
            out.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(run.status.success(), "{run:?}");
    assert_eq!(
        fs::read_to_string(&out).unwrap(),
        fs::read_to_string(&offline).unwrap(),
        "tailed bytes must equal the offline grid file after re-sorting"
    );

    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn cli_refuses_non_positive_alpha_with_exit_2() {
    let out = tmp_dir().join("alpha-zero.jsonl");
    let grid = gncg()
        .args(["grid", "--out", out.to_str().unwrap()])
        .args(["--hosts", "unit", "--n", "6", "--alpha", "0"])
        .args(["--rules", "greedy", "--seed-count", "1"])
        .output()
        .unwrap();
    assert_eq!(grid.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&grid.stderr).contains("must be positive"));
    assert!(!out.exists(), "a refused grid must write nothing");
    for alpha in ["0", "-2"] {
        let simulate = gncg()
            .args(["simulate", "--host", "unit", "--n", "6", "--alpha", alpha])
            .output()
            .unwrap();
        assert_eq!(simulate.status.code(), Some(2), "--alpha {alpha}");
    }
}

#[test]
fn cli_refuses_host_matrix_overflow_with_exit_2() {
    // n = 2^32 wraps n·n: the grid used to panic in SymMatrix::filled
    // (exit 101) instead of refusing the spec.
    let out = tmp_dir().join("huge-n.jsonl");
    let grid = gncg()
        .args(["grid", "--out", out.to_str().unwrap()])
        .args(["--hosts", "unit", "--n", "4294967296", "--alpha", "1"])
        .args(["--rules", "greedy", "--seed-count", "1"])
        .output()
        .unwrap();
    assert_eq!(grid.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&grid.stderr).contains("too large"));
    assert!(!out.exists(), "a refused grid must write nothing");
}

#[test]
fn cli_resume_refuses_broken_manifest() {
    // The CLI rebuilds the spec from the manifest, so a *valid* edited
    // manifest is (by construction) self-consistent; the mismatch guard
    // for explicit specs is covered at the library level. What the CLI
    // must catch is an unparsable or missing manifest: exit 2.
    let dir = tmp_dir();
    let out = dir.join("foreign.jsonl");
    run_grid(&golden_spec(), &out, false).unwrap();
    let manifest = manifest_path(&out);
    let mut text = fs::read_to_string(&manifest).unwrap();
    text = text.replace("max_rounds=", "max_rounds=not-a-number; was ");
    fs::write(&manifest, text).unwrap();
    let out_cmd = gncg()
        .args(["resume", "--out", out.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out_cmd.status.code(), Some(2));

    let missing = dir.join("never-ran.jsonl");
    let out_cmd = gncg()
        .args(["resume", "--out", missing.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out_cmd.status.code(), Some(2));
}
