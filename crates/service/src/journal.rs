//! The job journal: a write-ahead log that makes accepted jobs survive a
//! daemon crash.
//!
//! Each accepted `submit` appends one record — the job id, its optional
//! deadline, and the full spec JSON — and is **fsync'd before the client
//! sees the acknowledgement**, so an acknowledged job is durable: after a
//! `kill -9`, restarting with the same `--journal` path replays the log
//! and re-enqueues every job that had not finished. Terminal transitions
//! (`done`, `cancel`, `expire`) are appended flushed-but-not-synced: the
//! worst a lost terminal record costs is re-running a job whose cells the
//! result cache already holds — cheap by design, and byte-identical by
//! the determinism contract.
//!
//! # Record framing
//!
//! The same line-per-record, skip-what-you-can't-parse scheme as the
//! result cache's `g1` records, tagged `jl1`:
//!
//! ```text
//! jl1 submit <job> <deadline_ms|-> <spec-json> ;
//! jl1 done <job> ;
//! jl1 cancel <job> ;
//! jl1 expire <job> ;
//! ```
//!
//! Every record ends with the ` ;` marker. A torn tail (the record being
//! written when the process died) lacks it and is skipped on replay —
//! the marker also defeats the subtler tear where a *prefix* of a record
//! is itself parseable (`jl1 done 12` torn from `jl1 done 123`).
//!
//! # Startup compaction
//!
//! Replay rebuilds the pending set (submits without a terminal record);
//! if anything would be dropped — settled pairs, torn tails, foreign
//! lines — the journal is rewritten atomically (temp file + rename) to
//! just the pending submits, so the log stays proportional to the live
//! job set, not daemon lifetime.
//!
//! # Degradation
//!
//! An append failure (volume full, file deleted) is counted, reported
//! once, and drops the backing file: the daemon keeps serving with
//! journaling disabled rather than refusing work, and `status` surfaces
//! `journal_errors` so operators notice (see the README's failure-mode
//! matrix).

use std::collections::BTreeMap;
use std::fs;
use std::io::{BufWriter, Write as _};
use std::path::Path;

use gncg_suite::scenario::ScenarioSpec;

use crate::failpoint;
use crate::json::parse;
use crate::protocol::{spec_from_value, spec_to_json};

/// On-disk record tag (bumped if the record format ever changes).
const TAG: &str = "jl1";

/// Record terminator: a record without it is a torn tail and is skipped.
const MARK: &str = " ;";

/// A job reconstructed from the journal at startup: it was accepted (and
/// acknowledged) but had not reached a terminal state when the daemon
/// died, so the server re-enqueues it under its **original id** — a
/// client retrying `tail --job N` after the crash finds its job again.
#[derive(Clone, Debug)]
pub struct ReplayedJob {
    /// The job id the dead daemon assigned (preserved across restart).
    pub job: u64,
    /// The deadline the submit carried, if any. Wall-clock budgets are
    /// re-armed from restart time — the original start time died with
    /// the process, and a fresh budget errs toward completing the work.
    pub deadline_ms: Option<u64>,
    /// The submitted spec, re-validated on replay.
    pub spec: ScenarioSpec,
}

/// The append handle plus degradation counters. Replay state lives in
/// the server's job table; the journal itself holds nothing in memory.
#[derive(Debug, Default)]
pub struct Journal {
    file: Option<BufWriter<fs::File>>,
    append_errors: u64,
}

impl Journal {
    /// A disabled journal (no `--journal` flag): every append is a no-op.
    pub fn disabled() -> Journal {
        Journal::default()
    }

    /// Opens (or creates) the journal at `path`: replays existing
    /// records into the pending job list, compacts the file if anything
    /// settled or tore, and returns the append handle plus the jobs to
    /// re-enqueue (in submit order) and the largest job id ever seen
    /// (so the server's id counter never reuses one).
    pub fn open(path: &Path) -> Result<(Journal, Vec<ReplayedJob>, u64), String> {
        let mut pending: BTreeMap<u64, ReplayedJob> = BTreeMap::new();
        let mut max_job = 0u64;
        let mut raw_lines = 0usize;
        match fs::read_to_string(path) {
            Ok(text) => {
                for line in text.lines() {
                    raw_lines += 1;
                    // Torn tail or foreign line: skip, never fail startup.
                    let Some(body) = line.strip_suffix(MARK).and_then(|l| {
                        l.strip_prefix(TAG)
                            .and_then(|l| l.strip_prefix(' '))
                            .map(str::trim_end)
                    }) else {
                        continue;
                    };
                    let (op, rest) = match body.split_once(' ') {
                        Some(split) => split,
                        None => continue,
                    };
                    match op {
                        "submit" => {
                            let mut parts = rest.splitn(3, ' ');
                            let (Some(job), Some(deadline), Some(spec_json)) =
                                (parts.next(), parts.next(), parts.next())
                            else {
                                continue;
                            };
                            let Ok(job) = job.parse::<u64>() else {
                                continue;
                            };
                            let deadline_ms = match deadline {
                                "-" => None,
                                ms => match ms.parse::<u64>() {
                                    Ok(ms) => Some(ms),
                                    Err(_) => continue,
                                },
                            };
                            // The spec is re-validated exactly as a live
                            // submit would be; a record that no longer
                            // parses is dropped rather than wedging
                            // startup.
                            let Ok(spec) = parse(spec_json).and_then(|v| spec_from_value(&v))
                            else {
                                continue;
                            };
                            max_job = max_job.max(job);
                            pending.insert(
                                job,
                                ReplayedJob {
                                    job,
                                    deadline_ms,
                                    spec,
                                },
                            );
                        }
                        "done" | "cancel" | "expire" => {
                            let Ok(job) = rest.trim().parse::<u64>() else {
                                continue;
                            };
                            max_job = max_job.max(job);
                            pending.remove(&job);
                        }
                        _ => continue,
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("cannot read journal {}: {e}", path.display())),
        }
        // Compact: rewrite only when something would be dropped (settled
        // jobs, torn tails, foreign lines) so clean startups touch
        // nothing.
        if pending.len() < raw_lines {
            let tmp = path.with_extension("compact.tmp");
            {
                let f = fs::File::create(&tmp)
                    .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
                let mut w = BufWriter::new(f);
                for job in pending.values() {
                    writeln!(w, "{}", submit_record(job.job, job.deadline_ms, &job.spec))
                        .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
                }
                w.flush()
                    .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
            }
            fs::rename(&tmp, path)
                .map_err(|e| format!("cannot replace journal {}: {e}", path.display()))?;
        }
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open journal {}: {e}", path.display()))?;
        Ok((
            Journal {
                file: Some(BufWriter::new(file)),
                append_errors: 0,
            },
            pending.into_values().collect(),
            max_job,
        ))
    }

    /// Records an accepted submit, fsync'd — the record is on disk (not
    /// just in the page cache) before this returns, so the submit may be
    /// acknowledged. Durability failures degrade (see [`Journal`]).
    pub fn record_submit(&mut self, job: u64, deadline_ms: Option<u64>, spec: &ScenarioSpec) {
        self.append(&submit_record(job, deadline_ms, spec), true);
    }

    /// Records a job completing (flushed, not synced — replaying a lost
    /// `done` only re-runs a fully cached job).
    pub fn record_done(&mut self, job: u64) {
        self.append(&format!("{TAG} done {job}{MARK}"), false);
    }

    /// Records a cancellation.
    pub fn record_cancel(&mut self, job: u64) {
        self.append(&format!("{TAG} cancel {job}{MARK}"), false);
    }

    /// Records a deadline expiry.
    pub fn record_expire(&mut self, job: u64) {
        self.append(&format!("{TAG} expire {job}{MARK}"), false);
    }

    fn append(&mut self, record: &str, sync: bool) {
        let Some(f) = self.file.as_mut() else {
            return;
        };
        let written = failpoint::check("journal.append")
            .and_then(|()| writeln!(f, "{record}"))
            .and_then(|()| f.flush())
            .and_then(|()| {
                if sync {
                    f.get_ref().sync_data()
                } else {
                    Ok(())
                }
            });
        if let Err(e) = written {
            eprintln!("gncg_service: journal append failed ({e}); continuing without journaling");
            self.file = None;
            self.append_errors += 1;
        }
    }

    /// Whether the journal lost its backing file to an append failure.
    pub fn degraded(&self) -> bool {
        self.append_errors > 0
    }

    /// Append failures so far (0 or 1 today: the first failure drops the
    /// file; kept as a counter so `status` stays stable if that changes).
    pub fn append_errors(&self) -> u64 {
        self.append_errors
    }
}

fn submit_record(job: u64, deadline_ms: Option<u64>, spec: &ScenarioSpec) -> String {
    let deadline = deadline_ms.map_or_else(|| "-".to_string(), |ms| ms.to_string());
    format!("{TAG} submit {job} {deadline} {}{MARK}", spec_to_json(spec))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gncg-journal-tests-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn spec() -> ScenarioSpec {
        ScenarioSpec {
            ns: vec![5],
            alphas: vec![1.0, 2.0],
            ..ScenarioSpec::default()
        }
    }

    #[test]
    fn pending_jobs_replay_and_settled_jobs_compact_away() {
        let _fp = crate::failpoint::serial();
        let path = tmp("replay.journal");
        let _ = fs::remove_file(&path);
        {
            let (mut j, replayed, max) = Journal::open(&path).unwrap();
            assert!(replayed.is_empty());
            assert_eq!(max, 0);
            j.record_submit(1, None, &spec());
            j.record_submit(2, Some(5000), &spec());
            j.record_submit(3, None, &spec());
            j.record_done(1);
            j.record_cancel(3);
        }
        let (j, replayed, max) = Journal::open(&path).unwrap();
        assert!(!j.degraded());
        assert_eq!(max, 3);
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].job, 2);
        assert_eq!(replayed[0].deadline_ms, Some(5000));
        assert_eq!(replayed[0].spec, spec());
        // Compacted to exactly the one pending submit record.
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.starts_with("jl1 submit 2 5000 {"), "{text}");
        // A further reopen replays the compacted file and leaves it alone.
        let (_, again, _) = Journal::open(&path).unwrap();
        assert_eq!(again.len(), 1);
        assert_eq!(fs::read_to_string(&path).unwrap(), text);
    }

    #[test]
    fn torn_tail_and_foreign_lines_are_skipped() {
        let _fp = crate::failpoint::serial();
        let path = tmp("torn.journal");
        let _ = fs::remove_file(&path);
        {
            let (mut j, _, _) = Journal::open(&path).unwrap();
            j.record_submit(7, None, &spec());
            j.record_submit(12, None, &spec());
            j.record_done(12);
        }
        let mut text = fs::read_to_string(&path).unwrap();
        // A torn submit (no ` ;` marker), a torn terminal whose prefix is
        // itself numeric, and an unrelated line.
        text.push_str("jl1 submit 99 - {\"name\"\njl1 done 1\nnot a record\n");
        fs::write(&path, &text).unwrap();
        let (_, replayed, max) = Journal::open(&path).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].job, 7);
        assert_eq!(max, 12);
        // The tears were compacted away.
        assert_eq!(fs::read_to_string(&path).unwrap().lines().count(), 1);
    }

    #[test]
    fn submit_records_survive_without_terminal_sync() {
        let _fp = crate::failpoint::serial();
        // Only the submit is fsync'd; this asserts the record *format*
        // round-trips with every deadline shape.
        let path = tmp("roundtrip.journal");
        let _ = fs::remove_file(&path);
        {
            let (mut j, _, _) = Journal::open(&path).unwrap();
            j.record_submit(1, None, &spec());
            j.record_submit(2, Some(1), &spec());
            j.record_submit(3, Some(u64::MAX), &spec());
        }
        let (_, replayed, _) = Journal::open(&path).unwrap();
        let deadlines: Vec<_> = replayed.iter().map(|r| r.deadline_ms).collect();
        assert_eq!(deadlines, vec![None, Some(1), Some(u64::MAX)]);
        assert!(replayed.iter().all(|r| r.spec == spec()));
    }

    #[test]
    fn non_positive_alpha_records_are_dropped_on_replay() {
        let _fp = crate::failpoint::serial();
        // A journal written before α ≤ 0 was refused at validation can
        // hold such a submit; replaying it would panic a worker on every
        // restart, so replay drops it like any record that no longer
        // validates.
        let path = tmp("alpha.journal");
        let _ = fs::remove_file(&path);
        {
            let (mut j, _, _) = Journal::open(&path).unwrap();
            j.record_submit(1, None, &spec());
            let zero = ScenarioSpec {
                alphas: vec![0.0],
                ..spec()
            };
            j.record_submit(2, None, &zero);
        }
        let (_, replayed, _) = Journal::open(&path).unwrap();
        let jobs: Vec<_> = replayed.iter().map(|r| r.job).collect();
        assert_eq!(jobs, vec![1]);
    }

    #[test]
    fn host_matrix_overflow_records_are_dropped_on_replay() {
        // A journal written before validation bounded n can hold a submit
        // whose n·n wraps; replaying it would panic a worker on every
        // restart.
        let _fp = crate::failpoint::serial();
        let path = tmp("huge-n.journal");
        let _ = fs::remove_file(&path);
        {
            let (mut j, _, _) = Journal::open(&path).unwrap();
            j.record_submit(1, None, &spec());
            let huge = ScenarioSpec {
                ns: vec![1 << 32],
                ..spec()
            };
            j.record_submit(2, None, &huge);
        }
        let (_, replayed, _) = Journal::open(&path).unwrap();
        let jobs: Vec<_> = replayed.iter().map(|r| r.job).collect();
        assert_eq!(jobs, vec![1]);
    }

    #[test]
    fn disabled_journal_is_inert() {
        let mut j = Journal::disabled();
        j.record_submit(1, None, &spec());
        j.record_done(1);
        assert!(!j.degraded());
        assert_eq!(j.append_errors(), 0);
    }

    #[test]
    fn append_failure_degrades_and_counts() {
        let _fp = crate::failpoint::serial();
        let path = tmp("degrade.journal");
        let _ = fs::remove_file(&path);
        let (mut j, _, _) = Journal::open(&path).unwrap();
        crate::failpoint::arm("journal.append", crate::failpoint::Action::Err, 1);
        j.record_submit(1, None, &spec());
        crate::failpoint::disarm("journal.append");
        assert!(j.degraded());
        assert_eq!(j.append_errors(), 1);
        // Subsequent appends are silently dropped, not re-counted.
        j.record_submit(2, None, &spec());
        assert_eq!(j.append_errors(), 1);
        let (_, replayed, _) = Journal::open(&path).unwrap();
        assert!(replayed.is_empty(), "failed append left no record");
    }
}
