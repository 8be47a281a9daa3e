//! Compile-once, instantiate-many: the content-addressed compile cache.
//!
//! The ROADMAP's simulation-server north star shards thousands of
//! concurrent sessions over a fleet of engines. Sessions of the *same*
//! model must not each pay a full `analyze + elaborate` pass — the
//! compiled [`CompiledSystem`] is an immutable artifact, so one compile
//! can serve them all. [`SystemCache`] memoizes compilation keyed by the
//! model's stable content hash ([`UnifiedModel::content_hash`], FNV-1a 64
//! over the model's canonical rendering) and hands out `Arc`-shared
//! artifacts; each session then calls
//! [`CompiledSystem::instantiate`](crate::elaborate::CompiledSystem::instantiate)
//! — or [`HybridEngine::from_compiled`](crate::engine::HybridEngine::from_compiled)
//! — to stamp out its own live state.
//!
//! The hash is deliberately simple and dependency-free: FNV-1a 64-bit
//! (offset basis `0xcbf29ce484222325`, prime `0x100000001b3`) over the
//! model's derived `Debug` rendering. [`Fnv1a`] implements
//! [`fmt::Write`], so the rendering is folded into the hash as it is
//! formatted and never collected into a `String`; FNV-1a is a byte
//! stream, so the value is the same as hashing the rendered string.
//! Every collection in [`UnifiedModel`] is a `Vec` in declaration order
//! — no `HashMap` iteration anywhere near the rendering — so the hash is
//! deterministic across processes and platforms, and `urt-lint --hash`
//! prints the same value the cache keys on.

use crate::elaborate::CompiledSystem;
use crate::error::CoreError;
use crate::model::UnifiedModel;
use crate::sync::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64-bit hasher — the workspace's canonical content
/// hash (hermetic: no external hashing crates).
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// Starts a hash at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET_BASIS)
    }

    /// Folds `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// Folds formatted text into the hash as it is written, so
/// `write!(hasher, "{value:?}")` hashes a rendering without collecting
/// it. Never fails.
impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// One-shot FNV-1a 64-bit hash of `bytes`.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// A thread-safe memo of compiled artifacts keyed by
/// [`UnifiedModel::content_hash`], with hit/miss counters.
///
/// The compile closure is only invoked on a miss, which sidesteps the
/// registry lifecycle problem ([`BehaviorRegistry`](crate::elaborate::BehaviorRegistry)
/// is consumed by compilation and is not `Clone`): callers build the
/// registry *inside* the closure, and on a hit no registry is built at
/// all.
///
/// ```
/// use urt_core::cache::SystemCache;
/// use urt_core::elaborate::{elaborate, BehaviorRegistry};
/// use urt_core::model::ModelBuilder;
/// use urt_dataflow::flowtype::FlowType;
/// use urt_dataflow::streamer::FnStreamer;
///
/// # fn main() -> Result<(), urt_core::CoreError> {
/// let mut b = ModelBuilder::new("hello");
/// let wave = b.streamer("wave", "rk4");
/// b.streamer_out(wave, "y", FlowType::scalar());
/// let model = b.build();
///
/// let cache = SystemCache::new();
/// let compile = |m: &urt_core::model::UnifiedModel| {
///     let registry = BehaviorRegistry::new().streamer("wave", || {
///         Box::new(FnStreamer::new("wave", 0, 1, |t: f64, _h, _u, y: &mut [f64]| {
///             y[0] = t.cos()
///         }))
///     });
///     elaborate(m, registry)
/// };
/// let first = cache.get_or_compile(&model, compile)?;
/// let second = cache.get_or_compile(&model, compile)?;
/// assert!(std::sync::Arc::ptr_eq(&first, &second));
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// # Ok(())
/// # }
/// ```
pub struct SystemCache {
    entries: Mutex<HashMap<u64, Arc<CompiledSystem>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SystemCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        SystemCache {
            entries: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the cached artifact for `model`'s content hash, or
    /// invokes `compile` (typically `urt_analysis::compile` with a fresh
    /// registry) and caches the result. Hits return the same `Arc` —
    /// pointer equality holds.
    ///
    /// Compilation runs outside the cache lock; if two threads miss the
    /// same key concurrently both compile, but only one artifact is
    /// retained and handed to every caller. Errors are returned to the
    /// caller and never cached.
    ///
    /// # Errors
    ///
    /// Whatever `compile` returns.
    pub fn get_or_compile(
        &self,
        model: &UnifiedModel,
        compile: impl FnOnce(&UnifiedModel) -> Result<CompiledSystem, CoreError>,
    ) -> Result<Arc<CompiledSystem>, CoreError> {
        let key = model.content_hash();
        if let Some(hit) = self.entries.lock().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(hit));
        }
        let fresh = Arc::new(compile(model)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.entries.lock();
        let entry = entries.entry(key).or_insert(fresh);
        Ok(Arc::clone(entry))
    }

    /// Number of lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that compiled fresh.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct artifacts currently cached.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether the cache holds no artifacts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached artifact (counters are kept).
    pub fn clear(&self) {
        self.entries.lock().clear();
    }
}

impl Default for SystemCache {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for SystemCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SystemCache")
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate::{elaborate, BehaviorRegistry};
    use crate::model::ModelBuilder;
    use urt_dataflow::flowtype::FlowType;
    use urt_dataflow::streamer::FnStreamer;

    fn wave_model(name: &str) -> UnifiedModel {
        let mut b = ModelBuilder::new(name);
        let wave = b.streamer("wave", "rk4");
        b.streamer_out(wave, "y", FlowType::scalar());
        b.probe(wave, "y", "out");
        b.build()
    }

    fn compile(model: &UnifiedModel) -> Result<CompiledSystem, CoreError> {
        let registry = BehaviorRegistry::new().streamer("wave", || {
            Box::new(FnStreamer::new("wave", 0, 1, |t: f64, _h, _u: &[f64], y: &mut [f64]| {
                y[0] = t.cos()
            }))
        });
        elaborate(model, registry)
    }

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
        // Written in pieces, the stream hashes the same.
        let mut h = Fnv1a::new();
        fmt::Write::write_fmt(&mut h, format_args!("{}{}", "foo", "bar")).unwrap();
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn hit_returns_the_same_arc_and_counts() {
        let cache = SystemCache::new();
        let model = wave_model("m");
        let a = cache.get_or_compile(&model, compile).unwrap();
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 1, 1));
        let b = cache.get_or_compile(&model, compile).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hit must share the artifact");
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
    }

    #[test]
    fn distinct_models_get_distinct_entries() {
        let cache = SystemCache::new();
        let a = cache.get_or_compile(&wave_model("m1"), compile).unwrap();
        let b = cache.get_or_compile(&wave_model("m2"), compile).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn closure_is_skipped_on_hit_and_errors_are_not_cached() {
        let cache = SystemCache::new();
        let model = wave_model("m");
        // A failing compile is returned and not cached...
        let err = cache
            .get_or_compile(&model, |_| Err(CoreError::Elaborate { detail: "nope".into() }))
            .unwrap_err();
        assert!(err.to_string().contains("nope"));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 0, 0));
        // ...so the next call compiles for real.
        cache.get_or_compile(&model, compile).unwrap();
        // On a hit the closure must not run at all.
        cache
            .get_or_compile(&model, |_| -> Result<CompiledSystem, CoreError> {
                panic!("closure invoked on a cache hit")
            })
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn cache_and_artifact_are_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SystemCache>();
        assert_send_sync::<CompiledSystem>();

        // And actually share one artifact across threads.
        let cache = Arc::new(SystemCache::new());
        let model = wave_model("m");
        let compiled = cache.get_or_compile(&model, compile).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let compiled = Arc::clone(&compiled);
                scope.spawn(move || {
                    let instance = compiled.instantiate().expect("instantiates");
                    assert_eq!(instance.group_count(), 1);
                });
            }
        });
    }
}
