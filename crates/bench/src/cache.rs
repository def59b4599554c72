//! The content-addressed results cache behind `--cache DIR`.
//!
//! Every [`Job`](crate::exec::Job) carries a canonical
//! [`JobDesc`]; its 128-bit
//! [`Fingerprint`](ksr_core::Fingerprint) names one JSON file under the
//! cache directory holding the job's serialized [`MetricRow`]s. Because
//! jobs are pure functions of their descriptor, a hit can substitute
//! for execution without touching determinism: the reduce sees the
//! exact rows the job would have produced, so `results/*` stay
//! byte-identical whether a run was cold, warm, or assembled from
//! shards.
//!
//! Robustness rules, in order of importance:
//!
//! * **Never a wrong result.** A load validates the entry version, that
//!   the stored descriptor matches the requested one (guarding against
//!   fingerprint collisions and hand-edited files), and that every row
//!   parses. Anything unexpected — truncation, corruption, a stale
//!   format — is a miss, and the job simply runs.
//! * **Atomic writes.** Entries are written to a unique temp file and
//!   `rename`d into place, so concurrent shards (or a reader racing a
//!   writer) see either a complete entry or none.
//! * **Failures never fail the run.** A cache store error degrades to a
//!   progress note; the computed rows are still in hand.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ksr_core::Json;

use crate::common::MetricRow;
use crate::exec::JobDesc;

/// Entry format version; bump when the file layout changes so old
/// directories read as misses instead of parse errors.
const ENTRY_VERSION: u64 = 1;

/// Distinguishes concurrent writers' temp files within one process.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A directory of fingerprint-named result files.
#[derive(Debug, Clone)]
pub struct ResultsCache {
    dir: PathBuf,
}

impl ResultsCache {
    /// A cache rooted at `dir` (created lazily on first store).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The cache directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file a descriptor's entry lives at: `<dir>/<fingerprint>.json`.
    #[must_use]
    pub fn entry_path(&self, desc: &JobDesc) -> PathBuf {
        self.dir.join(format!("{}.json", desc.fingerprint().hex()))
    }

    /// Load the cached rows for `desc`, or `None` on any miss —
    /// absent, truncated, corrupted, wrong version, or a descriptor
    /// mismatch all read the same way: run the job.
    #[must_use]
    pub fn load(&self, desc: &JobDesc) -> Option<Vec<MetricRow>> {
        let text = fs::read_to_string(self.entry_path(desc)).ok()?;
        let doc = Json::parse(&text).ok()?;
        if doc.get("version")?.as_u64()? != ENTRY_VERSION {
            return None;
        }
        // The stored descriptor must render to exactly the requested
        // canonical form; trusting the file name alone would make a
        // fingerprint collision (or a renamed file) silently poison the
        // results.
        if doc.get("desc")?.render() != desc.canonical() {
            return None;
        }
        let rows = doc.get("rows")?.as_arr()?;
        rows.iter().map(MetricRow::from_json).collect()
    }

    /// Remove entries that can never hit again: files that no longer
    /// parse, entries for experiments absent from `live`, and entries
    /// whose stored schema differs from the experiment's current one
    /// (a schema bump re-keys every job, so the old generation is dead
    /// weight). `live` pairs each experiment id with its current schema
    /// version. In-flight temp files (`.tmp-*`) and files without the
    /// `.json` suffix are left alone; a missing directory is an empty
    /// cache, not an error.
    pub fn prune(&self, live: &[(&str, u32)]) -> io::Result<PruneStats> {
        let mut stats = PruneStats::default();
        let entries = match fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(stats),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if !name.ends_with(".json") || name.starts_with(".tmp-") {
                continue;
            }
            if entry_is_live(&entry.path(), live) {
                stats.kept += 1;
            } else {
                fs::remove_file(entry.path())?;
                stats.pruned += 1;
            }
        }
        Ok(stats)
    }

    /// Atomically store `rows` as the entry for `desc`.
    pub fn store(&self, desc: &JobDesc, rows: &[MetricRow]) -> io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        let doc = Json::obj([
            ("version", Json::from(ENTRY_VERSION)),
            (
                "desc",
                Json::parse(&desc.canonical()).expect("canonical descriptors are valid JSON"),
            ),
            (
                "rows",
                Json::Arr(rows.iter().map(MetricRow::to_json).collect()),
            ),
        ]);
        let mut body = doc.render_pretty();
        body.push('\n');
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}-{}",
            desc.fingerprint().hex(),
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed),
        ));
        fs::write(&tmp, body)?;
        match fs::rename(&tmp, self.entry_path(desc)) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }
}

/// Counters returned by [`ResultsCache::prune`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PruneStats {
    /// Entries whose experiment and schema are still current.
    pub kept: u64,
    /// Entries removed — stale schema, unknown experiment, or corrupt.
    pub pruned: u64,
}

/// Whether a cache entry on disk could still be served by [`ResultsCache::load`]
/// for some job of a live experiment generation. Mirrors `load`'s
/// validation for the fields prune can judge without a concrete
/// requesting descriptor: entry version, a parseable stored descriptor,
/// and an (experiment, schema) pair present in `live`.
fn entry_is_live(path: &Path, live: &[(&str, u32)]) -> bool {
    let Ok(text) = fs::read_to_string(path) else {
        return false;
    };
    let Ok(doc) = Json::parse(&text) else {
        return false;
    };
    if doc.get("version").and_then(Json::as_u64) != Some(ENTRY_VERSION) {
        return false;
    }
    let Some(desc) = doc.get("desc") else {
        return false;
    };
    let (Some(experiment), Some(schema)) = (
        desc.get("experiment").and_then(Json::as_str),
        desc.get("schema").and_then(Json::as_u64),
    ) else {
        return false;
    };
    live.iter()
        .any(|&(id, s)| id == experiment && u64::from(s) == schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::RunOpts;

    fn temp_cache(tag: &str) -> ResultsCache {
        let dir = std::env::temp_dir().join(format!("ksr_cache_test_{}_{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ResultsCache::new(dir)
    }

    fn desc(label: &str, seed: u64) -> JobDesc {
        JobDesc::new("TEST", 1, label, &RunOpts::quick())
            .seed(seed)
            .param("procs", 8usize)
    }

    fn rows() -> Vec<MetricRow> {
        vec![
            MetricRow::new("m", &[("procs", Json::from(8usize))], 0.25, "s"),
            MetricRow::new("n", &[], 2.0, "cycles"),
        ]
    }

    #[test]
    fn store_then_load_round_trips_rows() {
        let cache = temp_cache("round_trip");
        let d = desc("a", 1);
        assert!(cache.load(&d).is_none(), "cold cache must miss");
        cache.store(&d, &rows()).unwrap();
        let loaded = cache.load(&d).expect("warm cache must hit");
        assert_eq!(loaded.len(), 2);
        // The cache contract is byte-identical re-rendering, which is
        // what the artifact files are built from.
        for (a, b) in loaded.iter().zip(rows()) {
            assert_eq!(a.to_json().render(), b.to_json().render());
        }
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn different_descriptors_do_not_cross_hit() {
        let cache = temp_cache("isolation");
        cache.store(&desc("a", 1), &rows()).unwrap();
        assert!(cache.load(&desc("a", 2)).is_none(), "seed change → miss");
        assert!(cache.load(&desc("b", 1)).is_none(), "label change → miss");
        let bumped = JobDesc::new("TEST", 2, "a", &RunOpts::quick())
            .seed(1)
            .param("procs", 8usize);
        assert!(cache.load(&bumped).is_none(), "schema bump → miss");
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupted_entries_read_as_misses() {
        let cache = temp_cache("corrupt");
        let d = desc("a", 1);
        cache.store(&d, &rows()).unwrap();
        let path = cache.entry_path(&d);

        // Truncation.
        let full = fs::read_to_string(&path).unwrap();
        fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(cache.load(&d).is_none());

        // Valid JSON, wrong version.
        fs::write(&path, full.replace("\"version\": 1", "\"version\": 999")).unwrap();
        assert!(cache.load(&d).is_none());

        // Valid JSON, garbage rows.
        fs::write(&path, full.replace("\"metric\"", "\"mangled\"")).unwrap();
        assert!(cache.load(&d).is_none());

        // A different job's entry renamed over ours (collision guard).
        let other = desc("other", 9);
        cache.store(&other, &rows()).unwrap();
        fs::copy(cache.entry_path(&other), &path).unwrap();
        assert!(cache.load(&d).is_none());

        // Restoring the original bytes restores the hit.
        fs::write(&path, &full).unwrap();
        assert!(cache.load(&d).is_some());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn prune_keeps_live_entries_and_drops_dead_ones() {
        let cache = temp_cache("prune");
        // Live: TEST schema 1 (what desc() builds).
        let live_desc = desc("live", 1);
        cache.store(&live_desc, &rows()).unwrap();
        // Stale schema generation of the same experiment.
        let stale = JobDesc::new("TEST", 7, "stale", &RunOpts::quick()).seed(2);
        cache.store(&stale, &rows()).unwrap();
        // An experiment that no longer exists.
        let unknown = JobDesc::new("GONE", 1, "old", &RunOpts::quick()).seed(3);
        cache.store(&unknown, &rows()).unwrap();
        // Corruption.
        fs::write(cache.dir().join("deadbeef.json"), "{not json").unwrap();
        // An in-flight temp file and a foreign file must survive.
        fs::write(cache.dir().join(".tmp-abc-1-0"), "partial").unwrap();
        fs::write(cache.dir().join("README"), "not an entry").unwrap();

        let stats = cache.prune(&[("TEST", 1)]).unwrap();
        assert_eq!(stats, PruneStats { kept: 1, pruned: 3 });
        assert!(cache.load(&live_desc).is_some(), "live entry must survive");
        assert!(cache.dir().join(".tmp-abc-1-0").exists());
        assert!(cache.dir().join("README").exists());
        assert!(!cache.dir().join("deadbeef.json").exists());

        // A second pass finds nothing left to prune.
        let stats = cache.prune(&[("TEST", 1)]).unwrap();
        assert_eq!(stats, PruneStats { kept: 1, pruned: 0 });
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn prune_of_a_missing_directory_is_empty_not_an_error() {
        let cache = temp_cache("prune_missing");
        let stats = cache.prune(&[("TEST", 1)]).unwrap();
        assert_eq!(stats, PruneStats::default());
    }

    #[test]
    fn store_leaves_no_temp_files() {
        let cache = temp_cache("tmp_files");
        cache.store(&desc("a", 1), &rows()).unwrap();
        let names: Vec<String> = fs::read_dir(cache.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names.len(), 1);
        assert!(
            names[0].ends_with(".json") && !names[0].starts_with(".tmp-"),
            "stray files: {names:?}"
        );
        let _ = fs::remove_dir_all(cache.dir());
    }
}
