//! The content-addressed result cache.
//!
//! Keyed by [`cell_digest`](gncg_suite::scenario::cell_digest) — the
//! splitmix64 digest over every result-determining cell field — the cache
//! stores each cell's JSONL line with its positional `cell` index
//! stripped, so the same simulated cell can be served into *any* job at
//! *any* position by re-stamping the index. Because cell runs are
//! deterministic, a cache hit is byte-identical to a re-simulation.
//!
//! With a backing file the cache is also persistent: every insert appends
//! one `g1 <16-hex-digest> <line-rest>` record (flushed immediately — a
//! killed daemon loses at most the entry being written), and startup
//! replays the file into memory, skipping torn or foreign lines the same
//! way the grid resume scanner does.
//!
//! The memory map is optionally **bounded** (`--cache-max`): when a cap
//! is set, the cache evicts least-recently-used entries (lookup hits and
//! inserts both count as uses) so a long-lived daemon's memory stays
//! bounded. The disk file stays append-only at runtime — evicted records
//! linger there until the next startup, which **compacts** the file:
//! duplicate digests, torn tails, and records beyond the cap (oldest
//! first) are dropped and the survivors are rewritten atomically
//! (temp file + rename) in recency order, so replay re-establishes the
//! LRU order exactly.

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io::{BufWriter, Write as _};
use std::path::Path;

use gncg_suite::scenario::CellResult;

/// On-disk record tag (bumped if the record format ever changes).
const TAG: &str = "g1";

/// A cached line rest plus its recency stamp.
#[derive(Debug)]
struct Entry {
    rest: String,
    tick: u64,
}

/// A memory (and optionally disk) result cache, optionally LRU-bounded.
#[derive(Debug, Default)]
pub struct ResultCache {
    map: HashMap<u64, Entry>,
    /// Recency index: tick → digest. Ticks are unique (monotone counter),
    /// so the first entry is always the least recently used.
    recency: BTreeMap<u64, u64>,
    tick: u64,
    /// Maximum entries held in memory (`None` = unbounded).
    max_entries: Option<usize>,
    file: Option<BufWriter<fs::File>>,
    hits: u64,
    misses: u64,
    /// Disk appends that failed (each drops the backing file — see
    /// [`ResultCache::insert`] — so today this is 0 or 1; kept as a
    /// counter so `status` reporting stays stable if that changes).
    append_errors: u64,
}

/// Splits a [`CellResult::to_jsonl`] line into its positional prefix and
/// its content rest: `{"cell":17,"host":…}` → rest `,"host":…}`. The rest
/// is what the cache stores.
pub fn line_rest(line: &str) -> Result<&str, String> {
    let comma = line
        .find(',')
        .ok_or_else(|| format!("not a cell line: {line}"))?;
    if !line.starts_with("{\"cell\":") {
        return Err(format!("not a cell line: {line}"));
    }
    Ok(&line[comma..])
}

/// Re-stamps a stored rest with a positional index — the exact inverse of
/// [`line_rest`].
pub fn stamp_line(index: usize, rest: &str) -> String {
    format!("{{\"cell\":{index}{rest}")
}

impl ResultCache {
    /// An unbounded in-memory cache.
    pub fn in_memory() -> Self {
        ResultCache::default()
    }

    /// An in-memory cache holding at most `max_entries` entries
    /// (least-recently-used evicted first; `None` = unbounded; a cap of
    /// `0` is treated as `1` — the cache always retains the newest
    /// entry, and the CLI rejects `--cache-max 0` outright).
    pub fn in_memory_with(max_entries: Option<usize>) -> Self {
        ResultCache {
            max_entries,
            ..ResultCache::default()
        }
    }

    /// [`ResultCache::open_with`] without a cap.
    pub fn open(path: &Path) -> Result<Self, String> {
        ResultCache::open_with(path, None)
    }

    /// A cache backed by `path`, optionally capped at `max_entries`:
    /// existing records are replayed into memory (file order = recency
    /// order), the cap is applied (oldest evicted), and the file is
    /// **compacted** — duplicate digests, torn/foreign lines, and evicted
    /// records are dropped by atomically rewriting the survivors — before
    /// new inserts start appending.
    pub fn open_with(path: &Path, max_entries: Option<usize>) -> Result<Self, String> {
        let mut cache = ResultCache::in_memory_with(max_entries);
        let mut raw_lines = 0usize;
        match fs::read_to_string(path) {
            Ok(text) => {
                for line in text.lines() {
                    raw_lines += 1;
                    // Torn tail or foreign line: skip, never fail startup.
                    let mut parts = line.splitn(3, ' ');
                    let (tag, digest, rest) = (parts.next(), parts.next(), parts.next());
                    if tag != Some(TAG) {
                        continue;
                    }
                    if let (Some(digest), Some(rest)) = (digest, rest) {
                        if let Ok(d) = u64::from_str_radix(digest, 16) {
                            if rest.starts_with(',') && rest.ends_with('}') {
                                // Replay through the LRU path: a repeated
                                // digest refreshes recency (last write in
                                // the file wins), the cap evicts oldest.
                                cache.store(d, rest.to_string());
                            }
                        }
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("cannot read cache {}: {e}", path.display())),
        }
        // Compact: rewrite only when something would be dropped (dupes,
        // torn lines, evictions) so clean startups touch nothing.
        if cache.map.len() < raw_lines {
            let tmp = path.with_extension("compact.tmp");
            {
                let f = fs::File::create(&tmp)
                    .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
                let mut w = BufWriter::new(f);
                for digest in cache.recency.values() {
                    let rest = &cache.map[digest].rest;
                    writeln!(w, "{TAG} {digest:016x} {rest}")
                        .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
                }
                w.flush()
                    .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
            }
            fs::rename(&tmp, path)
                .map_err(|e| format!("cannot replace cache {}: {e}", path.display()))?;
        }
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open cache {}: {e}", path.display()))?;
        cache.file = Some(BufWriter::new(file));
        Ok(cache)
    }

    /// Puts `(digest, rest)` into the memory map, refreshing recency and
    /// evicting the least-recently-used entries beyond the cap. Disk is
    /// untouched (callers append/compact as appropriate).
    fn store(&mut self, digest: u64, rest: String) {
        self.tick += 1;
        if let Some(old) = self.map.insert(
            digest,
            Entry {
                rest,
                tick: self.tick,
            },
        ) {
            self.recency.remove(&old.tick);
        }
        self.recency.insert(self.tick, digest);
        if let Some(max) = self.max_entries {
            while self.map.len() > max.max(1) {
                let (_, oldest) = self.recency.pop_first().expect("recency tracks map");
                self.map.remove(&oldest);
            }
        }
    }

    /// Looks up a digest, counting the hit/miss. A hit returns the stored
    /// line rest (see [`stamp_line`]) and refreshes the entry's recency.
    pub fn lookup(&mut self, digest: u64) -> Option<String> {
        match self.map.get_mut(&digest) {
            Some(entry) => {
                self.hits += 1;
                self.tick += 1;
                self.recency.remove(&entry.tick);
                entry.tick = self.tick;
                self.recency.insert(self.tick, digest);
                Some(entry.rest.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a freshly simulated result under `digest` (appending to
    /// the backing file, if any). Re-inserting an existing digest only
    /// refreshes its recency: determinism makes both values
    /// byte-identical.
    ///
    /// The memory entry always lands (evicting the least-recently-used
    /// entry when a cap is set; evicted records stay in the append-only
    /// disk file until the next startup compaction). A disk-append
    /// failure (volume full, file deleted) must not disable caching: it
    /// is reported once and the backing file is dropped — the daemon
    /// degrades to a memory-only cache instead of silently re-simulating
    /// everything.
    pub fn insert(&mut self, digest: u64, result: &CellResult) -> Result<(), String> {
        let line = result.to_jsonl();
        let rest = line_rest(&line)?;
        let fresh = !self.map.contains_key(&digest);
        self.store(digest, rest.to_string());
        if !fresh {
            return Ok(());
        }
        if let Some(f) = self.file.as_mut() {
            let written = crate::failpoint::check("cache.append")
                .and_then(|()| writeln!(f, "{TAG} {digest:016x} {rest}"))
                .and_then(|()| f.flush());
            if let Err(e) = written {
                eprintln!("gncg_service: cache file append failed ({e}); continuing memory-only");
                self.file = None;
                self.append_errors += 1;
            }
        }
        Ok(())
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lookups served from memory so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that missed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Whether the cache lost its backing file to a disk-append failure
    /// and is now serving from memory only (`status` reports this as
    /// `cache_degraded`).
    pub fn degraded(&self) -> bool {
        self.append_errors > 0
    }

    /// Disk-append failures so far.
    pub fn append_errors(&self) -> u64 {
        self.append_errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gncg_suite::scenario::{cell_digest, Runner, ScenarioSpec};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gncg-cache-tests-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn stamp_inverts_rest() {
        let spec = ScenarioSpec::default();
        let cell = &spec.expand()[0];
        let line = Runner::new().run_cell(cell).to_jsonl();
        let rest = line_rest(&line).unwrap();
        assert_eq!(stamp_line(cell.index, rest), line);
        assert!(stamp_line(999, rest).starts_with("{\"cell\":999,"));
    }

    #[test]
    fn memory_cache_hits_after_insert() {
        let spec = ScenarioSpec::default();
        let cell = &spec.expand()[0];
        let result = Runner::new().run_cell(cell);
        let d = cell_digest(cell);
        let mut cache = ResultCache::in_memory();
        assert!(cache.lookup(d).is_none());
        cache.insert(d, &result).unwrap();
        let rest = cache.lookup(d).unwrap();
        assert_eq!(stamp_line(cell.index, &rest), result.to_jsonl());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    /// Distinct cells (and their results) from a small grid.
    fn cells_and_results(count: usize) -> Vec<(u64, usize, CellResult)> {
        let spec = ScenarioSpec {
            alphas: vec![0.5, 1.0, 1.5, 2.0],
            seeds: vec![0, 1],
            ..ScenarioSpec::default()
        };
        let cells = spec.expand();
        assert!(cells.len() >= count);
        let mut runner = Runner::new();
        cells[..count]
            .iter()
            .map(|c| (cell_digest(c), c.index, runner.run_cell(c)))
            .collect()
    }

    #[test]
    fn lru_cap_evicts_least_recently_used() {
        let items = cells_and_results(4);
        let mut cache = ResultCache::in_memory_with(Some(3));
        for (d, _, r) in &items[..3] {
            cache.insert(*d, r).unwrap();
        }
        // Touch the oldest entry so the middle one becomes LRU.
        assert!(cache.lookup(items[0].0).is_some());
        cache.insert(items[3].0, &items[3].2).unwrap();
        assert_eq!(cache.len(), 3);
        assert!(cache.lookup(items[1].0).is_none(), "LRU entry evicted");
        assert!(cache.lookup(items[0].0).is_some(), "touched entry survives");
        assert!(cache.lookup(items[2].0).is_some());
        assert!(cache.lookup(items[3].0).is_some());
    }

    #[test]
    fn uncapped_cache_never_evicts() {
        let items = cells_and_results(4);
        let mut cache = ResultCache::in_memory();
        for (d, _, r) in &items {
            cache.insert(*d, r).unwrap();
        }
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn startup_compaction_drops_evicted_duplicate_and_torn_records() {
        let _fp = crate::failpoint::serial();
        let path = tmp("compact.cache");
        let _ = fs::remove_file(&path);
        let items = cells_and_results(4);
        {
            let mut cache = ResultCache::open(&path).unwrap();
            for (d, _, r) in &items {
                cache.insert(*d, r).unwrap();
            }
        }
        // Corrupt the file: duplicate the first record and tear the tail.
        let mut text = fs::read_to_string(&path).unwrap();
        let first = text.lines().next().unwrap().to_string();
        text.push_str(&format!("{first}\ng1 00ff"));
        fs::write(&path, &text).unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap().lines().count(), 6);
        // Reopen capped at 2: items[1] and the re-appended duplicate of
        // items[0] are the most recent records; items[2..] evict... file
        // order is items[0..4] then items[0] again, so survivors are
        // items[3] and items[0] (refreshed by its duplicate).
        let mut cache = ResultCache::open_with(&path, Some(2)).unwrap();
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(items[0].0).is_some());
        assert!(cache.lookup(items[3].0).is_some());
        assert!(cache.lookup(items[1].0).is_none());
        // The file was compacted to exactly the two surviving records.
        let compacted = fs::read_to_string(&path).unwrap();
        assert_eq!(compacted.lines().count(), 2);
        // A further reopen replays the compacted file cleanly and leaves
        // it untouched (nothing to drop).
        let mut again = ResultCache::open_with(&path, Some(2)).unwrap();
        assert_eq!(again.len(), 2);
        assert!(again.lookup(items[0].0).is_some());
        assert_eq!(fs::read_to_string(&path).unwrap(), compacted);
    }

    #[test]
    fn disk_append_failure_degrades_to_memory_only() {
        let _fp = crate::failpoint::serial();
        let path = tmp("degrade.cache");
        let _ = fs::remove_file(&path);
        let items = cells_and_results(2);
        let mut cache = ResultCache::open(&path).unwrap();
        assert!(!cache.degraded());
        crate::failpoint::arm("cache.append", crate::failpoint::Action::Err, 1);
        cache.insert(items[0].0, &items[0].2).unwrap();
        crate::failpoint::disarm("cache.append");
        assert!(cache.degraded());
        assert_eq!(cache.append_errors(), 1);
        // Memory still serves, and later inserts neither write nor
        // re-count.
        assert!(cache.lookup(items[0].0).is_some());
        cache.insert(items[1].0, &items[1].2).unwrap();
        assert_eq!(cache.append_errors(), 1);
        assert_eq!(fs::read_to_string(&path).unwrap(), "");
    }

    #[test]
    fn disk_cache_survives_reopen_and_skips_torn_tail() {
        let _fp = crate::failpoint::serial();
        let path = tmp("persist.cache");
        let _ = fs::remove_file(&path);
        let spec = ScenarioSpec {
            alphas: vec![0.5, 2.0],
            ..ScenarioSpec::default()
        };
        let cells = spec.expand();
        let mut runner = Runner::new();
        let results: Vec<_> = cells.iter().map(|c| runner.run_cell(c)).collect();
        {
            let mut cache = ResultCache::open(&path).unwrap();
            for (c, r) in cells.iter().zip(&results) {
                cache.insert(cell_digest(c), r).unwrap();
            }
        }
        // Simulate a kill mid-append: add a torn record.
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("g1 00ff");
        fs::write(&path, &text).unwrap();
        let mut cache = ResultCache::open(&path).unwrap();
        assert_eq!(cache.len(), cells.len());
        for (c, r) in cells.iter().zip(&results) {
            let rest = cache.lookup(cell_digest(c)).expect("replayed entry");
            assert_eq!(stamp_line(c.index, &rest), r.to_jsonl());
        }
    }
}
