//! A keyed cache for tuned schedule parameters — the serving-side
//! amortization of the paper's §V-A empirical sweeps.
//!
//! Tuning is by far the most expensive step of a solve (tens of
//! schedule evaluations), yet its result depends only on the executed
//! *pattern*, the table *shape* and the *platform* — not on the cell
//! values. A server handling many requests for the same problem family
//! can therefore tune once and reuse: [`TuneKey`] buckets the exact
//! dimensions to their next power of two, so any instance in the same
//! bucket shares one tuned artifact. Alongside the paper's
//! `(t_switch, t_share)` pair the artifact carries the measured-fastest
//! [`ExecTier`] and the measured worker count ([`TunedConfig`]), so a
//! cache hit also skips the tier and worker timings. Consumers must
//! re-legalize cached parameters for the exact instance with
//! [`ScheduleParams::clamped_for`](crate::schedule::ScheduleParams::clamped_for)
//! (a cached `t_switch` tuned near the top of the bucket can exceed a
//! smaller instance's wave count).
//!
//! The cache is thread-safe and intentionally tiny: a mutexed map plus
//! hit/miss counters. Single-flight de-duplication is left to the
//! caller (the serve batcher already serializes tunes per batch key).
//! [`TunerCache::save_to`] / [`TunerCache::load_from`] persist the map
//! as a small JSON document so tier and schedule choices survive
//! process restarts (the serve binary pre-warms from it on start and
//! flushes it on graceful drain).

use crate::kernel::{ExecTier, MemoryMode};
use crate::pattern::Pattern;
use crate::schedule::ScheduleParams;
use crate::wavefront::Dims;
use lddp_trace::json::{self, escape, Json};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Cache key: executed pattern + power-of-two dims bucket + platform.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TuneKey {
    /// The canonical execution pattern (after any symmetry adapter).
    pub pattern: Pattern,
    /// `rows` rounded up to the next power of two.
    pub rows_bucket: usize,
    /// `cols` rounded up to the next power of two.
    pub cols_bucket: usize,
    /// Platform preset name the tune was measured on.
    pub platform: String,
}

impl TuneKey {
    /// Builds the key for an instance of `dims` executing as `pattern`
    /// on `platform`.
    pub fn new(pattern: Pattern, dims: Dims, platform: impl Into<String>) -> TuneKey {
        TuneKey {
            pattern,
            rows_bucket: dims.rows.next_power_of_two(),
            cols_bucket: dims.cols.next_power_of_two(),
            platform: platform.into(),
        }
    }

    /// A compact human-readable form, e.g. `AntiDiagonal/1024x1024/high`
    /// (used as a trace-span argument).
    pub fn label(&self) -> String {
        format!(
            "{:?}/{}x{}/{}",
            self.pattern, self.rows_bucket, self.cols_bucket, self.platform
        )
    }
}

/// One cached tuning artifact: the paper's schedule parameters plus the
/// execution tier that measured fastest for the key's bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TunedConfig {
    /// The tuned `(t_switch, t_share)` pair.
    pub params: ScheduleParams,
    /// The execution tier to run the bucket's solves on.
    pub tier: ExecTier,
    /// How the bucket's solves materialize the table. `Rolling` is
    /// chosen when the memory model says the full table busts the
    /// platform budget (and the problem supports wave-band execution).
    pub memory_mode: MemoryMode,
    /// Worker threads the bucket's solves ask the engine for; `None`
    /// uses the engine's full count. The tuner sets `Some(1)` when one
    /// worker solved the winning tier no slower than the pool: such a
    /// solve runs inline on the calling thread, with no pool hand-off
    /// and no per-wave barrier.
    pub workers: Option<usize>,
}

impl TunedConfig {
    /// Convenience constructor (full-table mode, the engine's full
    /// worker count).
    pub const fn new(params: ScheduleParams, tier: ExecTier) -> TunedConfig {
        TunedConfig {
            params,
            tier,
            memory_mode: MemoryMode::Full,
            workers: None,
        }
    }

    /// Sets the memory mode.
    #[must_use]
    pub const fn with_memory_mode(mut self, mode: MemoryMode) -> TunedConfig {
        self.memory_mode = mode;
        self
    }
}

/// Thread-safe `TuneKey → TunedConfig` cache with hit/miss counters.
#[derive(Debug, Default)]
pub struct TunerCache {
    map: Mutex<HashMap<TuneKey, TunedConfig>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TunerCache {
    /// An empty cache.
    pub fn new() -> TunerCache {
        TunerCache::default()
    }

    /// The cached config for `key`, if present (counts a hit or a
    /// miss).
    pub fn get(&self, key: &TuneKey) -> Option<TunedConfig> {
        let found = self.map.lock().unwrap().get(key).copied();
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores `config` for `key` (last write wins).
    pub fn insert(&self, key: TuneKey, config: TunedConfig) {
        self.map.lock().unwrap().insert(key, config);
    }

    /// The cached config for `key`, tuning via `tune` on a miss and
    /// caching the result. Returns `(config, hit)`. The tune closure
    /// runs outside the cache lock, so concurrent misses on the same
    /// key may tune redundantly (both results are equal; last wins).
    pub fn get_or_tune<E>(
        &self,
        key: &TuneKey,
        tune: impl FnOnce() -> std::result::Result<TunedConfig, E>,
    ) -> std::result::Result<(TunedConfig, bool), E> {
        if let Some(config) = self.get(key) {
            return Ok((config, true));
        }
        let config = tune()?;
        self.insert(key.clone(), config);
        Ok((config, false))
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Serializes every entry as a JSON document (`version` +
    /// `entries` array). Entries are emitted in a deterministic order
    /// (sorted by key label) so repeated saves of the same cache are
    /// byte-identical.
    pub fn save_json(&self) -> String {
        let mut entries: Vec<(TuneKey, TunedConfig)> = self
            .map
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        entries.sort_by_key(|(k, _)| k.label());
        let rows: Vec<String> = entries
            .iter()
            .map(|(k, c)| {
                format!(
                    concat!(
                        "{{\"pattern\":\"{}\",\"rows_bucket\":{},\"cols_bucket\":{},",
                        "\"platform\":\"{}\",\"t_switch\":{},\"t_share\":{},\"tier\":\"{}\",",
                        "\"memory_mode\":\"{}\"{}}}"
                    ),
                    escape(&format!("{:?}", k.pattern)),
                    k.rows_bucket,
                    k.cols_bucket,
                    escape(&k.platform),
                    c.params.t_switch,
                    c.params.t_share,
                    c.tier.as_str(),
                    c.memory_mode.as_str(),
                    c.workers
                        .map_or(String::new(), |w| format!(",\"workers\":{w}")),
                )
            })
            .collect();
        format!("{{\"version\":1,\"entries\":[{}]}}", rows.join(","))
    }

    /// Merges entries from a [`TunerCache::save_json`] document into
    /// this cache (loaded entries overwrite same-key entries). Returns
    /// the number of entries loaded. Individual entries that fail to
    /// decode (unknown pattern/tier name, missing field) are skipped —
    /// a cache file written by a newer build pre-warms what it can —
    /// but a document that is not shaped like a cache file at all is an
    /// error.
    pub fn load_json(&self, text: &str) -> std::result::Result<usize, String> {
        let doc = json::parse(text)?;
        let entries = doc
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or_else(|| "tuner cache file has no \"entries\" array".to_string())?;
        let mut loaded = 0;
        for e in entries {
            let Some((key, config)) = decode_entry(e) else {
                continue;
            };
            self.insert(key, config);
            loaded += 1;
        }
        Ok(loaded)
    }

    /// Writes [`TunerCache::save_json`] to `path` (trailing newline
    /// included, parent directories not created).
    pub fn save_to(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.save_json() + "\n")
    }

    /// Loads and merges a cache file written by [`TunerCache::save_to`].
    /// Returns the number of entries loaded.
    pub fn load_from(&self, path: impl AsRef<Path>) -> std::result::Result<usize, String> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| format!("reading {}: {e}", path.as_ref().display()))?;
        self.load_json(&text)
    }
}

/// Decodes one persisted entry, or `None` if any field is missing or
/// unrecognized.
fn decode_entry(e: &Json) -> Option<(TuneKey, TunedConfig)> {
    let pattern_name = e.get("pattern")?.as_str()?;
    let pattern = *Pattern::ALL
        .iter()
        .find(|p| format!("{p:?}") == pattern_name)?;
    let field = |name: &str| -> Option<usize> {
        let v = e.get(name)?.as_f64()?;
        (v.fract() == 0.0 && v >= 0.0).then_some(v as usize)
    };
    let key = TuneKey {
        pattern,
        rows_bucket: field("rows_bucket")?,
        cols_bucket: field("cols_bucket")?,
        platform: e.get("platform")?.as_str()?.to_string(),
    };
    // `memory_mode` is tolerated absent (caches written before the
    // rolling tier default to full-table mode), but a present,
    // unrecognized value rejects the entry like any other bad field.
    let memory_mode = match e.get("memory_mode") {
        None => MemoryMode::Full,
        Some(v) => MemoryMode::parse(v.as_str()?)?,
    };
    // `workers` is absent for the engine's full count (and in caches
    // written before the worker count was tuned); a present value must
    // be a positive integer.
    let workers = match e.get("workers") {
        None => None,
        Some(_) => Some(field("workers").filter(|&w| w > 0)?),
    };
    let config = TunedConfig {
        params: ScheduleParams::new(field("t_switch")?, field("t_share")?),
        tier: ExecTier::parse(e.get("tier")?.as_str()?)?,
        memory_mode,
        workers,
    };
    Some((key, config))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(t_switch: usize, t_share: usize, tier: ExecTier) -> TunedConfig {
        TunedConfig::new(ScheduleParams::new(t_switch, t_share), tier)
    }

    #[test]
    fn keys_bucket_dims_to_powers_of_two() {
        let a = TuneKey::new(Pattern::AntiDiagonal, Dims::new(700, 1000), "high");
        let b = TuneKey::new(Pattern::AntiDiagonal, Dims::new(1024, 513), "high");
        assert_eq!(a.rows_bucket, 1024);
        assert_eq!(a.cols_bucket, 1024);
        assert_eq!(a, b);
        // Different platform or pattern → different key.
        assert_ne!(
            a,
            TuneKey::new(Pattern::AntiDiagonal, Dims::new(700, 1000), "low")
        );
        assert_ne!(
            a,
            TuneKey::new(Pattern::Horizontal, Dims::new(700, 1000), "high")
        );
        assert!(a.label().contains("1024x1024/high"));
    }

    #[test]
    fn get_or_tune_caches_and_counts() {
        let cache = TunerCache::new();
        let key = TuneKey::new(Pattern::Horizontal, Dims::new(64, 64), "high");
        let mut tunes = 0;
        let (c, hit) = cache
            .get_or_tune(&key, || -> Result<_, ()> {
                tunes += 1;
                Ok(cfg(0, 8, ExecTier::Simd))
            })
            .unwrap();
        assert!(!hit);
        assert_eq!(c, cfg(0, 8, ExecTier::Simd));
        let (c2, hit2) = cache
            .get_or_tune(&key, || -> Result<_, ()> {
                tunes += 1;
                Ok(cfg(0, 99, ExecTier::Scalar))
            })
            .unwrap();
        assert!(hit2);
        assert_eq!(c2, cfg(0, 8, ExecTier::Simd));
        assert_eq!(tunes, 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn tune_errors_are_not_cached() {
        let cache = TunerCache::new();
        let key = TuneKey::new(Pattern::Horizontal, Dims::new(8, 8), "low");
        let r: Result<_, String> = cache.get_or_tune(&key, || Err("boom".to_string()));
        assert!(r.is_err());
        assert!(cache.is_empty());
        let (_, hit) = cache
            .get_or_tune(&key, || -> Result<_, String> {
                Ok(cfg(0, 1, ExecTier::Bulk))
            })
            .unwrap();
        assert!(!hit);
    }

    #[test]
    fn json_round_trip_preserves_every_entry() {
        let cache = TunerCache::new();
        cache.insert(
            TuneKey::new(Pattern::AntiDiagonal, Dims::new(700, 1000), "high"),
            cfg(4, 16, ExecTier::Simd),
        );
        cache.insert(
            TuneKey::new(Pattern::KnightMove, Dims::new(64, 64), "low"),
            cfg(0, 0, ExecTier::Scalar),
        );
        cache.insert(
            TuneKey::new(
                Pattern::AntiDiagonal,
                Dims::new(4096, 4096),
                "with \"quotes\"",
            ),
            cfg(2, 8, ExecTier::BitParallel),
        );
        let text = cache.save_json();
        let restored = TunerCache::new();
        assert_eq!(restored.load_json(&text), Ok(3));
        assert_eq!(restored.len(), 3);
        assert_eq!(
            restored.get(&TuneKey::new(
                Pattern::AntiDiagonal,
                Dims::new(700, 1000),
                "high"
            )),
            Some(cfg(4, 16, ExecTier::Simd))
        );
        assert_eq!(
            restored.get(&TuneKey::new(
                Pattern::AntiDiagonal,
                Dims::new(4096, 4096),
                "with \"quotes\""
            )),
            Some(cfg(2, 8, ExecTier::BitParallel))
        );
        // Deterministic output: saving the restored cache reproduces
        // the document byte for byte.
        assert_eq!(restored.save_json(), text);
    }

    #[test]
    fn load_skips_bad_entries_but_rejects_bad_documents() {
        let cache = TunerCache::new();
        assert!(cache.load_json("not json").is_err());
        assert!(cache.load_json("{\"version\":1}").is_err());
        // One good entry among unknown-pattern / unknown-tier /
        // missing-field junk: only the good one loads.
        let text = concat!(
            "{\"version\":1,\"entries\":[",
            "{\"pattern\":\"Diagonal9\",\"rows_bucket\":8,\"cols_bucket\":8,",
            "\"platform\":\"p\",\"t_switch\":0,\"t_share\":0,\"tier\":\"bulk\"},",
            "{\"pattern\":\"Horizontal\",\"rows_bucket\":8,\"cols_bucket\":8,",
            "\"platform\":\"p\",\"t_switch\":0,\"t_share\":0,\"tier\":\"warp\"},",
            "{\"pattern\":\"Horizontal\",\"rows_bucket\":8,\"cols_bucket\":8,",
            "\"platform\":\"p\",\"t_share\":0,\"tier\":\"bulk\"},",
            "{\"pattern\":\"Horizontal\",\"rows_bucket\":16,\"cols_bucket\":8,",
            "\"platform\":\"p\",\"t_switch\":1,\"t_share\":2,\"tier\":\"bit-parallel\"}",
            "]}"
        );
        assert_eq!(cache.load_json(text), Ok(1));
        assert_eq!(
            cache.get(&TuneKey::new(Pattern::Horizontal, Dims::new(16, 8), "p")),
            Some(cfg(1, 2, ExecTier::BitParallel))
        );
    }

    #[test]
    fn memory_mode_round_trips_and_defaults_to_full() {
        let cache = TunerCache::new();
        let key = TuneKey::new(Pattern::AntiDiagonal, Dims::new(8192, 8192), "low");
        cache.insert(
            key.clone(),
            cfg(4, 16, ExecTier::Simd).with_memory_mode(MemoryMode::Rolling),
        );
        let text = cache.save_json();
        assert!(text.contains("\"memory_mode\":\"rolling\""), "{text}");
        let restored = TunerCache::new();
        assert_eq!(restored.load_json(&text), Ok(1));
        assert_eq!(restored.get(&key).unwrap().memory_mode, MemoryMode::Rolling);
        assert_eq!(restored.save_json(), text);
        // A cache written before the rolling tier has no memory_mode
        // field: the entry still loads, defaulting to full-table mode.
        // A present-but-unknown value skips the entry like other junk.
        let legacy = concat!(
            "{\"version\":1,\"entries\":[",
            "{\"pattern\":\"Horizontal\",\"rows_bucket\":8,\"cols_bucket\":8,",
            "\"platform\":\"p\",\"t_switch\":0,\"t_share\":4,\"tier\":\"bulk\"},",
            "{\"pattern\":\"Horizontal\",\"rows_bucket\":16,\"cols_bucket\":8,",
            "\"platform\":\"p\",\"t_switch\":0,\"t_share\":4,\"tier\":\"bulk\",",
            "\"memory_mode\":\"paged\"}",
            "]}"
        );
        let tolerant = TunerCache::new();
        assert_eq!(tolerant.load_json(legacy), Ok(1));
        let loaded = tolerant
            .get(&TuneKey::new(Pattern::Horizontal, Dims::new(8, 8), "p"))
            .unwrap();
        assert_eq!(loaded.memory_mode, MemoryMode::Full);
    }

    #[test]
    fn workers_round_trip_default_to_none_and_reject_bad_values() {
        let cache = TunerCache::new();
        let key = TuneKey::new(Pattern::AntiDiagonal, Dims::new(1024, 1024), "high");
        let one = TunedConfig {
            workers: Some(1),
            ..cfg(0, 0, ExecTier::Simd)
        };
        cache.insert(key.clone(), one);
        let text = cache.save_json();
        assert!(text.contains("\"workers\":1"), "{text}");
        let restored = TunerCache::new();
        assert_eq!(restored.load_json(&text), Ok(1));
        assert_eq!(restored.get(&key), Some(one));
        assert_eq!(restored.save_json(), text);
        // No field: the engine's full count, as in caches written
        // before the worker count was tuned. A present value that is
        // zero or not a number skips the entry like an unknown tier.
        let entry = |rows: usize, workers: &str| {
            format!(
                "{{\"pattern\":\"Horizontal\",\"rows_bucket\":{rows},\"cols_bucket\":8,\
                 \"platform\":\"p\",\"t_switch\":0,\"t_share\":4,\"tier\":\"bulk\"{workers}}}"
            )
        };
        let text = format!(
            "{{\"version\":1,\"entries\":[{},{},{},{}]}}",
            entry(8, ""),
            entry(16, ",\"workers\":0"),
            entry(32, ",\"workers\":\"one\""),
            entry(64, ",\"workers\":1.5"),
        );
        let tolerant = TunerCache::new();
        assert_eq!(tolerant.load_json(&text), Ok(1));
        let loaded = tolerant
            .get(&TuneKey::new(Pattern::Horizontal, Dims::new(8, 8), "p"))
            .unwrap();
        assert_eq!(loaded.workers, None);
        // The engine's full count writes no field at all.
        let full = TunerCache::new();
        full.insert(key, cfg(0, 0, ExecTier::Simd));
        assert!(!full.save_json().contains("workers"));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("lddp-tc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tune_cache.json");
        let cache = TunerCache::new();
        cache.insert(
            TuneKey::new(Pattern::Vertical, Dims::new(100, 3), "host"),
            cfg(1, 2, ExecTier::Bulk),
        );
        cache.save_to(&path).unwrap();
        let restored = TunerCache::new();
        assert_eq!(restored.load_from(&path), Ok(1));
        assert_eq!(
            restored.get(&TuneKey::new(Pattern::Vertical, Dims::new(100, 3), "host")),
            Some(cfg(1, 2, ExecTier::Bulk))
        );
        assert!(restored.load_from(dir.join("missing.json")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
