//! Output checks: per-line digests of the JSONL bytes against the
//! committed references (default seed) or against the run's own first
//! pass (any other seed), plus event checks that count toward
//! `attempted` and `failed`.

use crate::workloads::Workload;

/// The committed reference digests: one line per `(workload, seed)`,
/// `<workload> <seed> <hex digest of line 1>,<hex digest of line 2>,…`.
pub const REFERENCES: &str = include_str!("../references.txt");

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The digest of every line of a JSONL text, newline included, so a
/// missing final newline shows as a changed line.
pub fn line_digests(text: &str) -> Vec<u64> {
    text.split_inclusive('\n')
        .map(|l| fnv1a(l.as_bytes()))
        .collect()
}

/// The committed per-line digests for `workload` at `seed`, if any.
pub fn reference(workload: Workload, seed: u64) -> Option<Vec<u64>> {
    REFERENCES.lines().find_map(|line| {
        let mut parts = line.split_whitespace();
        if parts.next()? != workload.name() || parts.next()?.parse::<u64>().ok()? != seed {
            return None;
        }
        parts
            .next()?
            .split(',')
            .map(|h| u64::from_str_radix(h, 16).ok())
            .collect()
    })
}

/// One `references.txt` line for `text`.
pub fn reference_line(workload: Workload, seed: u64, text: &str) -> String {
    let digests: Vec<String> = line_digests(text)
        .iter()
        .map(|d| format!("{d:016x}"))
        .collect();
    format!("{} {seed} {}", workload.name(), digests.join(","))
}

/// A converged line must carry `"certified":true` (every workload
/// certifies, in full or by sample).
fn certified_if_converged(line: &str) -> bool {
    !line.contains("\"outcome\":\"converged\"") || line.contains("\"certified\":true")
}

/// Running tally of checked items.
#[derive(Debug)]
pub struct OutputCheck {
    expected: Option<Vec<u64>>,
    /// Items checked: cell lines, submits, traced lines.
    pub attempted: usize,
    /// Items that failed their check.
    pub failed: usize,
    /// The first failure, for the error report.
    pub first_failure: Option<String>,
}

impl OutputCheck {
    /// A check against the committed references for `(workload, seed)`;
    /// without one, the first checked pass becomes the expectation.
    pub fn new(workload: Workload, seed: u64) -> Self {
        OutputCheck {
            expected: reference(workload, seed),
            attempted: 0,
            failed: 0,
            first_failure: None,
        }
    }

    /// Checks one full pass of JSONL output, line by line.
    pub fn check_pass(&mut self, what: &str, text: &str) {
        let digests = line_digests(text);
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        let expected = self.expected.get_or_insert_with(|| digests.clone()).clone();
        for i in 0..expected.len().max(lines.len()) {
            let same = digests.get(i) == expected.get(i);
            let certified = lines.get(i).is_some_and(|l| certified_if_converged(l));
            self.event(same && certified, || {
                let why = if same { "uncertified" } else { "mismatched" };
                format!("{what}: line {} {why}", i + 1)
            });
        }
    }

    /// Counts one checked item.
    pub fn event(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(describe());
            }
        }
    }

    /// Counts a failed step carrying its error.
    pub fn error(&mut self, what: &str, err: &str) {
        self.event(false, || format!("{what}: {err}"));
    }

    /// Whether nothing failed.
    pub fn ok(&self) -> bool {
        self.failed == 0
    }
}
