//! On-disk, content-addressed cache of simulated points.
//!
//! Every experiment point is a pure function of *(run point, machine
//! configuration, workload program, instruction budget)* — the simulator is
//! deterministic — so its [`SimStats`] can be cached across runs and across
//! experiments.  The cache key is the canonical serialization of exactly
//! those inputs:
//!
//! * the [`RunPoint`] coordinates,
//! * the full [`MachineConfig`](earlyreg_sim::MachineConfig) (canonical JSON, so *any* config change —
//!   scenario overrides, ablation knobs, Table 2 edits — changes the key),
//! * a fingerprint of the generated workload program (which covers the
//!   workload generator's seed, scale and code), and
//! * the committed-instruction budget.
//!
//! Entries are stored as `<digest>.json` files containing both the canonical
//! key (verified on load, so a digest collision degrades to a miss instead of
//! returning wrong data) and the full statistics.  JSON integers round-trip
//! bit-identically through the vendored serde, so a cache hit is
//! indistinguishable from a cold simulation — `tests/experiment_engine.rs`
//! asserts `SimStats` equality end to end.
//!
//! # Schema versioning
//!
//! The key carries [`CACHE_VERSION`].  **Bump it whenever a change alters
//! what a cached entry means**: simulator-semantics fixes, `SimStats` field
//! changes, workload-generator changes not covered by the program
//! fingerprint, or changes to the key schema itself.  Old entries then
//! key-verify against a different canonical string and degrade to misses —
//! stale statistics are never served.  Do *not* bump it for changes that are
//! already part of the key (machine config, budget, workload programs).
//!
//! # Concurrency
//!
//! A cache directory may be shared by any number of threads and processes
//! (parallel `earlyreg-exp` runs, the `earlyreg-serve` worker pool).  The
//! invariants are:
//!
//! * **store is atomic** — entries are written to a uniquely named temp file
//!   in the cache directory and `rename`d into place, so a reader observes
//!   either no entry or a complete one, never a torn write;
//! * **load degrades to a miss** — an unreadable, unparsable, or
//!   key-mismatched entry returns `None` (and concurrent stores of the same
//!   digest write identical bytes, so whichever rename lands last is
//!   equivalent).  `load` never returns an error.

use crate::runner::RunPoint;
use earlyreg_sim::SimStats;
use serde::{json, Serialize};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Version of the cached-entry semantics; part of every [`CacheKey`].
///
/// History: version 1 was the implicit (unversioned) PR 3 key schema;
/// version 2 added this field to the canonical key; version 3 switched the
/// policy encoding inside [`RunPoint`] (and the machine config) from enum
/// variant names (`"Extended"`) to registry ids (`"extended"`) — a key
/// *schema* change, so pre-registry entries are retired explicitly rather
/// than orphaned silently.  Within one version, policy ids are open-ended:
/// registering a *new* scheme extends the keyspace and needs no bump.
/// See the module docs for the bump policy.
pub const CACHE_VERSION: u32 = 3;

/// 64-bit FNV-1a — small, dependency-free and stable across platforms.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The full identity of one simulation point.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CacheKey {
    /// Schema/semantics version; always [`CACHE_VERSION`] for fresh keys
    /// (see [`CacheKey::new`]).  Entries written under another version
    /// key-verify differently and degrade to misses.
    pub version: u32,
    /// Point coordinates.
    pub point: RunPoint,
    /// Canonical JSON of the machine configuration actually simulated.
    pub machine: String,
    /// FNV-1a fingerprint of the workload's generated program.
    pub workload_fingerprint: u64,
    /// Committed-instruction budget of the run.
    pub max_instructions: u64,
}

impl CacheKey {
    /// Build a key at the current [`CACHE_VERSION`].
    pub fn new(
        point: RunPoint,
        machine: String,
        workload_fingerprint: u64,
        max_instructions: u64,
    ) -> Self {
        CacheKey {
            version: CACHE_VERSION,
            point,
            machine,
            workload_fingerprint,
            max_instructions,
        }
    }

    /// Canonical string form (the content that is addressed).
    pub fn canonical(&self) -> String {
        serde::Serialize::to_value(self).canonical()
    }

    /// Content digest: the cache file name.
    pub fn digest(&self) -> u64 {
        fnv1a64(self.canonical().as_bytes())
    }
}

/// A directory of `<digest>.json` point entries.
#[derive(Debug, Clone)]
pub struct PointCache {
    dir: PathBuf,
}

impl PointCache {
    /// Open (without creating) a cache directory.
    pub fn new<P: Into<PathBuf>>(dir: P) -> Self {
        PointCache { dir: dir.into() }
    }

    /// The directory backing this cache.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// File path of one entry.
    pub fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{:016x}.json", key.digest()))
    }

    /// Look up a point.  Any unreadable, unparsable or key-mismatched entry
    /// is treated as a miss.
    pub fn load(&self, key: &CacheKey) -> Option<SimStats> {
        let text = std::fs::read_to_string(self.entry_path(key)).ok()?;
        let value = json::parse(&text).ok()?;
        let stored_key = value.get("key")?.as_str()?;
        if stored_key != key.canonical() {
            return None;
        }
        serde::Deserialize::from_value(value.get("stats")?).ok()
    }

    /// Store a point (creates the cache directory on first use).
    ///
    /// The entry is written to a temp file unique to this writer (process id
    /// plus a process-wide counter) in the cache directory and `rename`d
    /// into place, so concurrent writers never interleave bytes in a shared
    /// temp file and a reader can never observe a torn entry — a shared
    /// `<digest>.tmp` name would let writer B truncate the file writer A is
    /// about to rename.
    pub fn store(&self, key: &CacheKey, stats: &SimStats) -> io::Result<PathBuf> {
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        std::fs::create_dir_all(&self.dir)?;
        let path = self.entry_path(key);
        let entry = serde::value::Value::Map(vec![
            ("key".to_string(), serde::value::Value::Str(key.canonical())),
            ("stats".to_string(), serde::Serialize::to_value(stats)),
        ]);
        let tmp = self.dir.join(format!(
            ".{:016x}.{}.{}.tmp",
            key.digest(),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, entry.canonical())?;
        if let Err(error) = std::fs::rename(&tmp, &path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(error);
        }
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earlyreg_core::ReleasePolicy;
    use earlyreg_workloads::WorkloadClass;

    fn key(max_instructions: u64) -> CacheKey {
        CacheKey::new(
            RunPoint {
                workload: "swim",
                class: WorkloadClass::Fp,
                policy: ReleasePolicy::Extended,
                phys_int: 48,
                phys_fp: 48,
            },
            "{\"fetch_width\":8}".to_string(),
            0xdead_beef,
            max_instructions,
        )
    }

    #[test]
    fn digests_are_stable_and_input_sensitive() {
        assert_eq!(key(100).digest(), key(100).digest());
        assert_ne!(key(100).digest(), key(101).digest());
        let mut other = key(100);
        other.machine.push('x');
        assert_ne!(other.digest(), key(100).digest());
    }

    #[test]
    fn cache_version_is_part_of_the_key() {
        let current = key(100);
        assert_eq!(current.version, CACHE_VERSION);
        let mut old = key(100);
        old.version = CACHE_VERSION - 1;
        // A version bump changes both the digest (different file) and the
        // canonical key (so even a digest collision would key-verify to a
        // miss): stale entries can never be served.
        assert_ne!(old.digest(), current.digest());
        assert_ne!(old.canonical(), current.canonical());
        assert!(current.canonical().contains("\"version\":"));
    }

    #[test]
    fn store_load_round_trip_and_mismatch_misses() {
        let dir = std::env::temp_dir().join(format!("earlyreg-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = PointCache::new(&dir);
        let key = key(4242);
        assert_eq!(cache.load(&key), None, "empty cache must miss");

        let stats = SimStats {
            cycles: 77,
            committed: u64::MAX - 9,
            halted: true,
            ..Default::default()
        };
        cache.store(&key, &stats).unwrap();
        assert_eq!(
            cache.load(&key),
            Some(stats.clone()),
            "hit is bit-identical"
        );

        // Corrupt the entry: the load degrades to a miss.
        std::fs::write(cache.entry_path(&key), "{not json").unwrap();
        assert_eq!(cache.load(&key), None);

        // A different key hashing to a different file also misses.
        assert_eq!(cache.load(&self::key(1)), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deeply_nested_entry_loads_as_a_miss() {
        let dir =
            std::env::temp_dir().join(format!("earlyreg-cache-nested-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = PointCache::new(&dir);
        let key = key(4243);
        cache.store(&key, &SimStats::default()).unwrap();
        // A hostile entry nested far past the JSON parser's depth bound must
        // degrade to a miss, not overflow the stack.
        std::fs::write(cache.entry_path(&key), "[".repeat(500_000)).unwrap();
        assert_eq!(cache.load(&key), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
