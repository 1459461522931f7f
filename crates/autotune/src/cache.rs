//! The persistent tuned-artifact cache.
//!
//! A [`TuneCache`] is a directory of `<design_hash:016x>.tuned` files.
//! Loads never panic and never fail a caller: corrupt, truncated,
//! version-mismatched or mis-keyed entries count as misses (with the
//! `rejected` counter bumped) so a damaged cache can only cost a rebuild,
//! never correctness. [`TunePolicy`] is the knob production subsystems
//! (serve / shard / cluster) embed in their configs to decide *which*
//! cache to consult on engine-cache fill.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::artifact::TunedArtifact;

/// Environment variable overriding the default cache directory.
pub const CACHE_DIR_ENV: &str = "RTLFLOW_TUNE_CACHE";

/// Hit/miss/corruption counters (relaxed; they are telemetry only).
#[derive(Debug, Default)]
pub struct CacheStats {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    /// Entries that existed but were rejected (corrupt / truncated /
    /// version mismatch / key mismatch) and therefore ignored.
    pub rejected: AtomicU64,
}

impl CacheStats {
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.rejected.load(Ordering::Relaxed),
        )
    }
}

/// An on-disk artifact cache rooted at one directory.
#[derive(Debug)]
pub struct TuneCache {
    dir: PathBuf,
    pub stats: CacheStats,
}

impl TuneCache {
    /// Cache rooted at an explicit directory (created lazily on store).
    pub fn at(dir: impl Into<PathBuf>) -> TuneCache {
        TuneCache {
            dir: dir.into(),
            stats: CacheStats::default(),
        }
    }

    /// The default cache directory: `$RTLFLOW_TUNE_CACHE` when set, else
    /// `$HOME/.cache/rtlflow/tuned`, else `.rtlflow-tuned` in the
    /// working directory.
    pub fn default_dir() -> PathBuf {
        if let Some(d) = std::env::var_os(CACHE_DIR_ENV) {
            return PathBuf::from(d);
        }
        match std::env::var_os("HOME") {
            Some(home) => Path::new(&home).join(".cache/rtlflow/tuned"),
            None => PathBuf::from(".rtlflow-tuned"),
        }
    }

    /// Cache rooted at [`TuneCache::default_dir`].
    pub fn open_default() -> TuneCache {
        TuneCache::at(TuneCache::default_dir())
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// File path an artifact for `design_hash` lives at.
    pub fn path_for(&self, design_hash: u64) -> PathBuf {
        self.dir.join(format!("{design_hash:016x}.tuned"))
    }

    /// Load the artifact for a design. Any failure — missing file,
    /// unreadable bytes, corrupt/truncated/version-mismatched content, or
    /// an entry whose recorded hash does not match its key — is a miss,
    /// never an error or a panic.
    pub fn load(&self, design_hash: u64) -> Option<TunedArtifact> {
        let path = self.path_for(design_hash);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match TunedArtifact::parse(&text) {
            // Stale-key guard: a file renamed onto the wrong hash (or a
            // hash-field corruption that survived re-checksumming) must
            // not apply another design's config.
            Ok(a) if a.design_hash == design_hash => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(a)
            }
            _ => {
                self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Persist an artifact under its design hash (atomic rename so a
    /// concurrent loader never observes a half-written file).
    pub fn store(&self, artifact: &TunedArtifact) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.path_for(artifact.design_hash);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, artifact.serialize())?;
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }
}

/// How a subsystem consults the tuned-artifact cache on engine-cache
/// fill. The default (`Auto`) makes tuned configs flow to production
/// paths with no config changes: tune once, every later serve/shard/
/// cluster engine build for that design picks the artifact up.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum TunePolicy {
    /// Consult the default cache directory ([`TuneCache::default_dir`]).
    #[default]
    Auto,
    /// Never consult the cache.
    Off,
    /// Consult an explicit cache directory (the `--tuned <dir>` CLI flag).
    Dir(PathBuf),
}

impl TunePolicy {
    /// Look up the artifact for a design under this policy.
    pub fn lookup(&self, design_hash: u64) -> Option<TunedArtifact> {
        match self {
            TunePolicy::Off => None,
            TunePolicy::Auto => TuneCache::open_default().load(design_hash),
            TunePolicy::Dir(d) => TuneCache::at(d).load(design_hash),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::PartSpec;
    use cudasim::{ExecConfig, FuseConfig};

    fn art(hash: u64) -> TunedArtifact {
        TunedArtifact {
            design_hash: hash,
            design_name: "t".into(),
            exec: ExecConfig::default().with_lane_chunk(512),
            fuse: FuseConfig::default(),
            partition: PartSpec::PerLevel,
            seed: 1,
            probes: 2,
            baseline: 10.0,
            best_score: 12.0,
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("rtlflow-tune-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn store_load_round_trips() {
        let cache = TuneCache::at(tmpdir("roundtrip"));
        let a = art(0xabc);
        cache.store(&a).unwrap();
        assert_eq!(cache.load(0xabc).unwrap(), a);
        assert_eq!(cache.stats.snapshot(), (1, 0, 0));
    }

    #[test]
    fn missing_entry_is_a_miss() {
        let cache = TuneCache::at(tmpdir("miss"));
        assert!(cache.load(0x123).is_none());
        assert_eq!(cache.stats.snapshot(), (0, 1, 0));
    }

    #[test]
    fn mis_keyed_entry_is_rejected() {
        let cache = TuneCache::at(tmpdir("miskey"));
        let a = art(0x111);
        cache.store(&a).unwrap();
        // Rename the valid file onto a different hash's key.
        std::fs::rename(cache.path_for(0x111), cache.path_for(0x222)).unwrap();
        assert!(cache.load(0x222).is_none());
        assert_eq!(cache.stats.rejected.load(Ordering::Relaxed), 1);
    }
    /// A cache written before the last format bump still holds files:
    /// they are refused and counted, and cost a re-tune, nothing else.
    #[test]
    fn previous_version_entry_is_rejected_and_counted() {
        use crate::artifact::{reversioned, ARTIFACT_VERSION};
        let cache = TuneCache::at(tmpdir("stale-version"));
        let path = cache.store(&art(0x333)).unwrap();
        let stale = reversioned(
            &std::fs::read_to_string(&path).unwrap(),
            ARTIFACT_VERSION - 1,
        );
        std::fs::write(&path, stale).unwrap();
        assert!(cache.load(0x333).is_none());
        assert_eq!(cache.stats.snapshot(), (0, 0, 1));
    }
}
