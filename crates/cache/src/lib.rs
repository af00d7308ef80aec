//! # scnn-cache
//!
//! A zero-dependency, content-addressed on-disk artifact cache.
//!
//! The experiment pipeline's expensive phases — CNN training and
//! per-category HPC collection — are pure functions of the experiment
//! configuration (see DESIGN.md § Parallel execution for the determinism
//! contract). That makes their outputs cacheable by construction: derive
//! a [`CacheKey`] from the canonical JSON of the relevant config fields,
//! and any later run with the same key can reuse the stored bytes
//! instead of recomputing.
//!
//! Design points, in the spirit of the rest of the workspace:
//!
//! - **Hermetic.** The digest is an in-tree FNV-1a/SplitMix construction,
//!   the file format is hand-rolled, and the only dependencies are other
//!   workspace crates.
//! - **Corruption is a miss, never a crash.** Every load verifies a
//!   magic/version header, the payload length and an FNV-1a checksum;
//!   any mismatch (truncated file, flipped bit, future format version)
//!   makes [`ArtifactCache::load`] return `None` so the caller simply
//!   recomputes.
//! - **Writes are atomic.** [`ArtifactCache::store`] writes to a
//!   temporary file in the cache directory and renames it into place, so
//!   a concurrent reader sees either the old artifact or the new one,
//!   never a torn file — and an interrupted run never poisons the cache.
//! - **Concurrent writers: single-writer-wins.** Keys are content
//!   addresses, so two writers racing on one key are by contract writing
//!   the *same* payload; whichever rename lands last simply replaces an
//!   identical file. The rename is the only commit point — there is no
//!   lock to leak and no torn state for a reader to observe. This is an
//!   explicit contract (pinned by the `concurrent_*` stress tests), not
//!   an accident of the implementation.
//! - **Crash recovery at open.** A process killed between the temp-file
//!   write and the rename leaves a `.tmp-…` orphan behind;
//!   [`ArtifactCache::open`] sweeps those (counted under
//!   `cache.tmp_swept`) so a cache directory never accumulates garbage
//!   across crashes. Corrupt artifacts are quarantined on first
//!   detection (counted under `cache.corrupt`) instead of being re-read
//!   and re-rejected forever.
//! - **Bounded.** [`ArtifactCache::gc`] evicts least-recently-modified
//!   artifacts down to a byte budget (counted under `cache.evicted`),
//!   so a long-running service can share one cache directory without it
//!   growing without bound.
//! - **Observation-only telemetry.** `cache.hits` / `cache.misses` /
//!   `cache.writes` / `cache.corrupt` / `cache.tmp_swept` /
//!   `cache.evicted` counters and a `cache.lookup` span flow to an
//!   installed [`scnn_obs`] recorder; nothing the cache records feeds
//!   back into results.
//!
//! The digest is *not* cryptographic: it defends against accidental key
//! collisions and on-disk corruption, not against an adversary who can
//! write to the cache directory.
//!
//! # Examples
//!
//! ```
//! use scnn_cache::{ArtifactCache, CacheKey};
//!
//! # fn main() -> std::io::Result<()> {
//! let dir = std::env::temp_dir().join(format!("scnn-cache-doc-{}", std::process::id()));
//! let cache = ArtifactCache::open(&dir)?;
//! let key = CacheKey::from_canonical("{\"dataset\":\"mnist\",\"seed\":7}");
//! assert!(cache.load("model", key).is_none());
//! cache.store("model", key, b"weights")?;
//! assert_eq!(cache.load("model", key).as_deref(), Some(&b"weights"[..]));
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

use scnn_rng::SplitMix64;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Artifact file magic: `"SCAC"` (SCnn Artifact Cache).
const MAGIC: u32 = 0x5343_4143;
/// Artifact format version; bump on any layout change so older binaries
/// treat newer files as misses instead of misreading them.
const VERSION: u16 = 1;
/// Header bytes preceding the payload: magic(4) + version(2) +
/// payload_len(8) + checksum(8).
const HEADER_LEN: usize = 22;

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over `bytes`, starting from `seed` (use [`FNV_OFFSET`]
/// for the standard hash).
fn fnv1a64_seeded(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The standard 64-bit FNV-1a hash — used as the payload checksum.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_seeded(FNV_OFFSET, bytes)
}

/// Finalizes a raw FNV state through one SplitMix64 step, which mixes
/// high and low bits much better than FNV alone (FNV-1a barely diffuses
/// into the top bits for short inputs).
fn mix(x: u64) -> u64 {
    SplitMix64::new(x).next_value()
}

/// A 128-bit content digest identifying one artifact.
///
/// Derived from a *canonical* string (the cache contract is that equal
/// configurations serialize to byte-equal strings — see
/// `scnn_core::artifact`) by two independently-seeded FNV-1a passes,
/// each finalized through SplitMix64.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// High 64 bits of the digest.
    pub hi: u64,
    /// Low 64 bits of the digest.
    pub lo: u64,
}

impl CacheKey {
    /// Digests a canonical description of the artifact's inputs.
    pub fn from_canonical(text: &str) -> Self {
        let bytes = text.as_bytes();
        CacheKey {
            hi: mix(fnv1a64_seeded(FNV_OFFSET, bytes)),
            lo: mix(fnv1a64_seeded(FNV_OFFSET ^ 0x5C44_AC1F_AC7C_4A5E, bytes)),
        }
    }

    /// The digest as 32 lowercase hex characters (the on-disk file stem).
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
    }
}

/// Disambiguates concurrent writers within one process; the process id
/// disambiguates across processes.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Subdirectory corrupt artifacts are moved into by
/// [`ArtifactCache::load`]'s quarantine pass.
const QUARANTINE_DIR: &str = "quarantine";

/// What one [`ArtifactCache::gc`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Artifacts present before the pass.
    pub scanned: usize,
    /// Artifacts deleted to get under budget.
    pub evicted: usize,
    /// Total artifact bytes before the pass.
    pub bytes_before: u64,
    /// Total artifact bytes after the pass.
    pub bytes_after: u64,
}

/// A content-addressed artifact store rooted at one directory.
///
/// Artifacts live directly under the root as `<kind>-<digest>.art`,
/// where `kind` is a short slug (`model`, `obs`, …) that keeps the
/// directory listable by humans and lets different artifact types share
/// one cache directory without key-space tricks.
#[derive(Debug, Clone)]
pub struct ArtifactCache {
    root: PathBuf,
}

impl ArtifactCache {
    /// Opens (creating if needed) a cache rooted at `root`.
    ///
    /// Startup recovery runs as part of opening: stale `.tmp-*` files
    /// left by processes that were killed between the temp-file write
    /// and the rename are swept (see [`ArtifactCache::sweep_stale`]).
    /// The sweep is best-effort — a file that cannot be removed is left
    /// in place rather than failing the open.
    ///
    /// # Errors
    ///
    /// Returns the [`io::Error`] of `create_dir_all` when the directory
    /// cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        // Eager, so "is anything quarantined?" checks (tests, CI gates)
        // can list the directory without racing its first use.
        fs::create_dir_all(root.join(QUARANTINE_DIR))?;
        let cache = ArtifactCache { root };
        let _ = cache.sweep_stale();
        Ok(cache)
    }

    /// Removes orphaned `.tmp-*` files left behind by crashed writers,
    /// returning how many were swept (also counted under
    /// `cache.tmp_swept`).
    ///
    /// Temp names embed the writer's process id
    /// (`.tmp-{pid}-{counter}-…`), so the sweep only touches files whose
    /// pid differs from the current process — an in-flight store by
    /// another thread of *this* process is never yanked out from under
    /// its rename. A dead writer's pid could in principle have been
    /// recycled by a live unrelated process; in that worst case the live
    /// writer's `store` observes a failed rename and reports it as an
    /// ordinary best-effort cache error, never corruption.
    pub fn sweep_stale(&self) -> io::Result<usize> {
        let own_pid = std::process::id();
        let mut swept = 0usize;
        for entry in fs::read_dir(&self.root)? {
            let Ok(entry) = entry else { continue };
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(rest) = name.strip_prefix(".tmp-") else {
                continue;
            };
            let pid: Option<u32> = rest.split('-').next().and_then(|p| p.parse().ok());
            if pid == Some(own_pid) {
                continue;
            }
            if fs::remove_file(entry.path()).is_ok() {
                swept += 1;
            }
        }
        if swept > 0 {
            scnn_obs::counter_add("cache.tmp_swept", swept as u64);
        }
        Ok(swept)
    }

    /// The cache directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The on-disk path of one artifact.
    ///
    /// # Panics
    ///
    /// Panics when `kind` is not a lowercase-alphanumeric/`-`/`_` slug —
    /// kinds are compile-time constants, so a bad one is a programming
    /// error, not bad input.
    pub fn path_for(&self, kind: &str, key: CacheKey) -> PathBuf {
        assert!(
            !kind.is_empty()
                && kind.bytes().all(|b| b.is_ascii_lowercase()
                    || b.is_ascii_digit()
                    || b == b'-'
                    || b == b'_'),
            "artifact kind must be a short slug, got {kind:?}"
        );
        self.root.join(format!("{kind}-{}.art", key.hex()))
    }

    /// Loads an artifact's payload, or `None` on a miss.
    ///
    /// A miss is *any* failure: no file, unreadable file, wrong magic or
    /// version, length mismatch, checksum mismatch. Corruption therefore
    /// degrades to recomputation, never to a crash or to wrong data.
    ///
    /// A file that *was* readable but failed validation is quarantined
    /// on the spot (moved under `quarantine/`, counted under
    /// `cache.corrupt`), so every later lookup of that key is a plain
    /// fast miss instead of re-reading and re-rejecting the same bytes
    /// forever.
    pub fn load(&self, kind: &str, key: CacheKey) -> Option<Vec<u8>> {
        let _span = scnn_obs::Span::enter("cache.lookup");
        let path = self.path_for(kind, key);
        let payload = match fs::read(&path) {
            Err(_) => None,
            Ok(bytes) => {
                let decoded = decode_artifact(&bytes);
                if decoded.is_none() {
                    self.quarantine(&path);
                }
                decoded
            }
        };
        if payload.is_some() {
            scnn_obs::counter_add("cache.hits", 1);
        } else {
            scnn_obs::counter_add("cache.misses", 1);
        }
        payload
    }

    /// The directory corrupt artifacts are moved into.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.root.join(QUARANTINE_DIR)
    }

    /// Moves a failed-validation artifact out of the addressable key
    /// space (best-effort; falls back to deletion when the rename
    /// fails). Keeping the bytes around lets an operator inspect what
    /// went wrong, while the lookup path stops paying for them.
    fn quarantine(&self, path: &Path) {
        scnn_obs::counter_add("cache.corrupt", 1);
        let dir = self.quarantine_dir();
        let quarantined = path
            .file_name()
            .map(|name| dir.join(name))
            .filter(|target| fs::create_dir_all(&dir).is_ok() && fs::rename(path, target).is_ok());
        if quarantined.is_none() {
            let _ = fs::remove_file(path);
        }
    }

    /// Evicts least-recently-modified artifacts until the cache's total
    /// artifact bytes fit `budget_bytes`.
    ///
    /// Eviction order is (mtime, file name) ascending — deterministic
    /// even when a filesystem's timestamp granularity makes mtimes
    /// collide. Only committed `*.art` files count against the budget
    /// and only they are evicted; in-flight `.tmp-*` files and the
    /// quarantine directory are untouched. Evicting an artifact a
    /// concurrent reader is mid-`load` on is safe: the reader either won
    /// the race (it already read the bytes) or sees an ordinary miss.
    ///
    /// # Errors
    ///
    /// Returns the [`io::Error`] of listing the cache directory; failure
    /// to remove an individual file is skipped (the next pass retries).
    pub fn gc(&self, budget_bytes: u64) -> io::Result<GcReport> {
        let mut artifacts: Vec<(PathBuf, u64, std::time::SystemTime)> = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let Ok(entry) = entry else { continue };
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if !name.ends_with(".art") {
                continue;
            }
            let Ok(meta) = entry.metadata() else { continue };
            if !meta.is_file() {
                continue;
            }
            let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
            artifacts.push((entry.path(), meta.len(), mtime));
        }
        let mut report = GcReport {
            scanned: artifacts.len(),
            evicted: 0,
            bytes_before: artifacts.iter().map(|(_, len, _)| len).sum(),
            bytes_after: 0,
        };
        report.bytes_after = report.bytes_before;
        if report.bytes_before <= budget_bytes {
            return Ok(report);
        }
        artifacts.sort_by(|a, b| a.2.cmp(&b.2).then_with(|| a.0.cmp(&b.0)));
        for (path, len, _) in &artifacts {
            if report.bytes_after <= budget_bytes {
                break;
            }
            if fs::remove_file(path).is_ok() {
                report.evicted += 1;
                report.bytes_after -= len;
            }
        }
        if report.evicted > 0 {
            scnn_obs::counter_add("cache.evicted", report.evicted as u64);
        }
        Ok(report)
    }

    /// Stores an artifact atomically: the framed payload is written to a
    /// temporary file in the cache directory and renamed over the final
    /// path, so readers never observe a partial write.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`io::Error`]; callers treat the cache as
    /// best-effort and may ignore it.
    pub fn store(&self, kind: &str, key: CacheKey, payload: &[u8]) -> io::Result<()> {
        let path = self.path_for(kind, key);
        let tmp = self.root.join(format!(
            ".tmp-{}-{}-{kind}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed),
            key.hex()
        ));
        let framed = encode_artifact(payload);
        fs::write(&tmp, framed)?;
        match fs::rename(&tmp, &path) {
            Ok(()) => {
                scnn_obs::counter_add("cache.writes", 1);
                Ok(())
            }
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }
}

/// Frames a payload with the magic/version/length/checksum header.
fn encode_artifact(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC.to_be_bytes());
    out.extend_from_slice(&VERSION.to_be_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_be_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// Unframes an artifact, returning `None` on any inconsistency.
fn decode_artifact(bytes: &[u8]) -> Option<Vec<u8>> {
    if bytes.len() < HEADER_LEN {
        return None;
    }
    let magic = u32::from_be_bytes(bytes[0..4].try_into().ok()?);
    let version = u16::from_be_bytes(bytes[4..6].try_into().ok()?);
    let len = u64::from_be_bytes(bytes[6..14].try_into().ok()?);
    let checksum = u64::from_be_bytes(bytes[14..22].try_into().ok()?);
    if magic != MAGIC || version != VERSION {
        return None;
    }
    let payload = &bytes[HEADER_LEN..];
    if payload.len() as u64 != len || fnv1a64(payload) != checksum {
        return None;
    }
    Some(payload.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("scnn-cache-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_hits_after_store() {
        let dir = scratch("roundtrip");
        let cache = ArtifactCache::open(&dir).unwrap();
        let key = CacheKey::from_canonical("config-a");
        assert!(cache.load("model", key).is_none(), "empty cache misses");
        cache.store("model", key, b"payload bytes").unwrap();
        assert_eq!(
            cache.load("model", key).as_deref(),
            Some(&b"payload bytes"[..])
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_are_stable_and_spread() {
        let a = CacheKey::from_canonical("{\"seed\":1}");
        assert_eq!(a, CacheKey::from_canonical("{\"seed\":1}"), "pure function");
        assert_ne!(a, CacheKey::from_canonical("{\"seed\":2}"));
        // A one-character change must not leave either word unchanged.
        let b = CacheKey::from_canonical("{\"seed\":1} ");
        assert_ne!(a.hi, b.hi);
        assert_ne!(a.lo, b.lo);
        assert_eq!(a.hex().len(), 32);
    }

    #[test]
    fn kinds_partition_the_key_space() {
        let dir = scratch("kinds");
        let cache = ArtifactCache::open(&dir).unwrap();
        let key = CacheKey::from_canonical("shared");
        cache.store("model", key, b"m").unwrap();
        assert!(cache.load("obs", key).is_none(), "other kind is a miss");
        assert_eq!(cache.load("model", key).as_deref(), Some(&b"m"[..]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let dir = scratch("empty");
        let cache = ArtifactCache::open(&dir).unwrap();
        let key = CacheKey::from_canonical("empty");
        cache.store("obs", key, b"").unwrap();
        assert_eq!(cache.load("obs", key).as_deref(), Some(&b""[..]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_single_byte_flip_is_a_miss() {
        let dir = scratch("flip");
        let cache = ArtifactCache::open(&dir).unwrap();
        let key = CacheKey::from_canonical("flip");
        cache
            .store("model", key, b"sensitive artifact data")
            .unwrap();
        let path = cache.path_for("model", key);
        let good = fs::read(&path).unwrap();
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            fs::write(&path, &bad).unwrap();
            assert!(
                cache.load("model", key).is_none(),
                "flipping byte {i} must invalidate the artifact"
            );
        }
        fs::write(&path, &good).unwrap();
        assert!(cache.load("model", key).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_is_a_miss_at_every_cut() {
        let dir = scratch("trunc");
        let cache = ArtifactCache::open(&dir).unwrap();
        let key = CacheKey::from_canonical("trunc");
        cache.store("model", key, b"0123456789").unwrap();
        let path = cache.path_for("model", key);
        let good = fs::read(&path).unwrap();
        for cut in 0..good.len() {
            fs::write(&path, &good[..cut]).unwrap();
            assert!(cache.load("model", key).is_none(), "cut at {cut}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn future_version_is_a_miss() {
        let dir = scratch("version");
        let cache = ArtifactCache::open(&dir).unwrap();
        let key = CacheKey::from_canonical("version");
        cache.store("model", key, b"abc").unwrap();
        let path = cache.path_for("model", key);
        let mut bytes = fs::read(&path).unwrap();
        bytes[4..6].copy_from_slice(&(VERSION + 1).to_be_bytes());
        // Recompute nothing: the version is outside the checksum on
        // purpose, so this isolates the version check.
        fs::write(&path, &bytes).unwrap();
        assert!(cache.load("model", key).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_overwrites_atomically() {
        let dir = scratch("overwrite");
        let cache = ArtifactCache::open(&dir).unwrap();
        let key = CacheKey::from_canonical("overwrite");
        cache.store("model", key, b"old").unwrap();
        cache.store("model", key, b"new").unwrap();
        assert_eq!(cache.load("model", key).as_deref(), Some(&b"new"[..]));
        // No temp files left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "temp files must be renamed away");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn counters_flow_to_an_installed_recorder() {
        let dir = scratch("counters");
        let cache = ArtifactCache::open(&dir).unwrap();
        let key = CacheKey::from_canonical("counters");
        let recorder = std::sync::Arc::new(scnn_obs::Recorder::new());
        scnn_obs::install(recorder.clone());
        let _ = cache.load("model", key); // miss
        cache.store("model", key, b"x").unwrap(); // write
        let _ = cache.load("model", key); // hit
        scnn_obs::uninstall();
        let snap = recorder.snapshot();
        assert!(snap.counter("cache.misses").unwrap_or(0) >= 1);
        assert!(snap.counter("cache.writes").unwrap_or(0) >= 1);
        assert!(snap.counter("cache.hits").unwrap_or(0) >= 1);
        assert!(
            snap.spans.iter().any(|s| s.name == "cache.lookup"),
            "lookup span recorded"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "artifact kind must be a short slug")]
    fn bad_kind_is_rejected() {
        let dir = scratch("badkind");
        let cache = ArtifactCache::open(&dir).unwrap();
        let _ = cache.path_for("../escape", CacheKey::from_canonical("x"));
    }

    /// Regression: a process killed between `fs::write` and `fs::rename`
    /// leaves a `.tmp-{pid}-…` orphan. That exact on-disk state —
    /// simulated here by writing the temp file a dead pid would have
    /// left — must be swept by the next `open`, not kept forever.
    #[test]
    fn kill_between_write_and_rename_is_swept_on_open() {
        let dir = scratch("orphan");
        let cache = ArtifactCache::open(&dir).unwrap();
        let key = CacheKey::from_canonical("orphan");
        // A writer that died mid-store: framed payload sitting in a temp
        // file under a pid that is not ours (u32::MAX is never a real
        // Linux pid; pid_max caps well below it).
        let orphan = dir.join(format!(".tmp-{}-0-model-{}", u32::MAX, key.hex()));
        fs::write(&orphan, encode_artifact(b"half-committed")).unwrap();
        // Our own in-flight temp file must survive the sweep.
        let own = dir.join(format!(".tmp-{}-7-model-{}", std::process::id(), key.hex()));
        fs::write(&own, encode_artifact(b"in flight")).unwrap();

        let reopened = ArtifactCache::open(&dir).unwrap();
        assert!(!orphan.exists(), "dead writer's temp file must be swept");
        assert!(own.exists(), "own in-flight temp file must be kept");
        assert!(
            reopened.load("model", key).is_none(),
            "the orphan never became an artifact"
        );
        let _ = fs::remove_dir_all(&dir);
        drop(cache);
    }

    #[test]
    fn corrupt_artifact_is_quarantined_on_first_detection() {
        let dir = scratch("quarantine");
        let cache = ArtifactCache::open(&dir).unwrap();
        let key = CacheKey::from_canonical("quarantine");
        cache.store("model", key, b"good bytes").unwrap();
        let path = cache.path_for("model", key);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let recorder = std::sync::Arc::new(scnn_obs::Recorder::new());
        scnn_obs::install(recorder.clone());
        assert!(cache.load("model", key).is_none(), "corruption is a miss");
        scnn_obs::uninstall();
        assert!(
            !path.exists(),
            "first detection must move the entry out of the key space"
        );
        let quarantined = cache.quarantine_dir().join(path.file_name().unwrap());
        assert_eq!(
            fs::read(&quarantined).unwrap(),
            bytes,
            "the corrupt bytes are preserved for inspection"
        );
        assert!(
            recorder.snapshot().counter("cache.corrupt").unwrap_or(0) >= 1,
            "corruption is counted"
        );
        // Later lookups are plain misses; a fresh store revives the key.
        assert!(cache.load("model", key).is_none());
        cache.store("model", key, b"good bytes").unwrap();
        assert_eq!(
            cache.load("model", key).as_deref(),
            Some(&b"good bytes"[..])
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_evicts_oldest_first_down_to_budget() {
        let dir = scratch("gc");
        let cache = ArtifactCache::open(&dir).unwrap();
        let keys: Vec<CacheKey> = (0..4)
            .map(|i| CacheKey::from_canonical(&format!("gc-{i}")))
            .collect();
        for key in &keys {
            cache.store("model", *key, &[0u8; 100]).unwrap();
        }
        // Deterministic ages regardless of filesystem timestamp
        // granularity: key 0 oldest … key 3 newest.
        let base = std::time::SystemTime::now() - std::time::Duration::from_secs(1000);
        for (i, key) in keys.iter().enumerate() {
            let file = fs::File::options()
                .write(true)
                .open(cache.path_for("model", *key))
                .unwrap();
            let when = base + std::time::Duration::from_secs(i as u64 * 60);
            file.set_times(fs::FileTimes::new().set_modified(when))
                .unwrap();
        }
        let per_artifact = (HEADER_LEN + 100) as u64;
        let report = cache.gc(2 * per_artifact).unwrap();
        assert_eq!(report.scanned, 4);
        assert_eq!(report.evicted, 2, "evict just enough to fit the budget");
        assert_eq!(report.bytes_before, 4 * per_artifact);
        assert_eq!(report.bytes_after, 2 * per_artifact);
        assert!(cache.load("model", keys[0]).is_none(), "oldest evicted");
        assert!(
            cache.load("model", keys[1]).is_none(),
            "second-oldest evicted"
        );
        assert!(cache.load("model", keys[2]).is_some(), "newer kept");
        assert!(cache.load("model", keys[3]).is_some(), "newest kept");
        // Already under budget: a second pass is a no-op.
        let idle = cache.gc(2 * per_artifact).unwrap();
        assert_eq!(idle.evicted, 0);
        assert_eq!(idle.bytes_before, idle.bytes_after);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_ignores_tmp_and_quarantine_files() {
        let dir = scratch("gc-scope");
        let cache = ArtifactCache::open(&dir).unwrap();
        let key = CacheKey::from_canonical("gc-scope");
        cache.store("model", key, &[1u8; 64]).unwrap();
        let own_tmp = dir.join(format!(".tmp-{}-0-model-deadbeef", std::process::id()));
        fs::write(&own_tmp, b"in flight").unwrap();
        fs::create_dir_all(cache.quarantine_dir()).unwrap();
        fs::write(cache.quarantine_dir().join("model-old.art"), b"bad").unwrap();

        let report = cache.gc(0).unwrap();
        assert_eq!(report.scanned, 1, "only committed artifacts are scanned");
        assert_eq!(report.evicted, 1);
        assert!(own_tmp.exists(), "gc must not touch in-flight temp files");
        assert!(
            cache.quarantine_dir().join("model-old.art").exists(),
            "gc must not touch quarantined files"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// The single-writer-wins contract under real contention: many
    /// threads hammering one shared key (plus private keys) must never
    /// produce a torn read, a wrong payload, or a leftover temp file.
    #[test]
    fn concurrent_writers_and_readers_never_corrupt() {
        let dir = scratch("stress");
        let cache = ArtifactCache::open(&dir).unwrap();
        let shared = CacheKey::from_canonical("stress-shared");
        // Content addressing means every writer of `shared` writes the
        // same payload — that is the contract being stress-tested.
        let payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let workers = 8;
        let rounds = 40;
        std::thread::scope(|scope| {
            for w in 0..workers {
                let cache = &cache;
                let payload = &payload;
                scope.spawn(move || {
                    let private = CacheKey::from_canonical(&format!("stress-private-{w}"));
                    for r in 0..rounds {
                        cache.store("model", shared, payload).unwrap();
                        match cache.load("model", shared) {
                            Some(got) => assert_eq!(&got, payload, "worker {w} round {r}"),
                            None => panic!("shared key vanished after store (worker {w})"),
                        }
                        cache.store("obs", private, &[w as u8; 33]).unwrap();
                        assert_eq!(
                            cache.load("obs", private).as_deref(),
                            Some(&[w as u8; 33][..])
                        );
                        if r % 16 == 0 {
                            // GC under contention: eviction may race the
                            // stores, but never corrupts what survives.
                            cache.gc(u64::MAX).unwrap();
                        }
                    }
                });
            }
        });
        let leftovers: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
        assert_eq!(
            fs::read_dir(cache.quarantine_dir()).unwrap().count(),
            0,
            "healthy concurrent traffic must never quarantine anything"
        );
        assert_eq!(cache.load("model", shared).unwrap(), payload);
        let _ = fs::remove_dir_all(&dir);
    }
}
