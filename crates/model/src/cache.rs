//! Context-score memoization for online serving.
//!
//! Evaluation-mode scoring is a pure function of the padded key window
//! ([`TransDas::position_scores`] runs with dropout disabled), and production
//! sessions draw from one or two workflows, so the same windows recur
//! constantly. [`ScoreCache`] memoizes score rows under the *exact* window
//! key — full-key equality, not a hash digest — so a hit returns
//! bit-identical scores and memoized detection is provably equivalent to
//! unmemoized detection.
//!
//! Every entry is tagged with the [`ScoreRows`] it holds: Block detection
//! reads the full `L x vocab` matrix ([`ScoreRows::All`]), Streaming
//! detection only the `1 x vocab` row of `O_L` ([`ScoreRows::Last`]), which
//! is `L` times smaller. The two kinds live in separate maps, so a reader
//! can never be handed the other kind for the same window; capacity and
//! recency span both.
//!
//! The cache is shared across serving shards: lookups take a [`Mutex`] on
//! the map while hit/miss/eviction counters are lock-free [`ucad_obs`]
//! handles — [`CacheStats`] is a view over those handles, and
//! [`ScoreCache::register_metrics`] exposes the same cells on a metrics
//! registry (`ucad_cache_*`), so the snapshot API and the exposition can
//! never disagree. Eviction is least-recently-used via per-entry use
//! stamps; the `O(capacity)` eviction scan only runs on a miss at capacity
//! and is negligible next to the transformer forward pass it replaces.
//!
//! [`TransDas::position_scores`]: crate::TransDas::position_scores

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use ucad_nn::Tensor;
use ucad_obs::{latency_log_bounds, Counter, Gauge, Histogram, MetricKind, Registry};

/// Which rows of a window's `L x vocab` score matrix a computation produces
/// and a cache entry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoreRows {
    /// Every output position, `L x vocab` (Block detection).
    All,
    /// Only the last position `O_L`, `1 x vocab` (Streaming detection).
    Last,
}

/// Counter snapshot for benchmarking and capacity tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Lookups that returned memoized scores.
    pub hits: u64,
    /// Lookups that fell through to a forward pass.
    pub misses: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
    /// Entries dropped on lookup because their model epoch was stale
    /// (memoized before a hot-swap).
    pub stale_drops: u64,
    /// Entries currently resident.
    pub len: usize,
    /// Maximum resident entries.
    pub capacity: usize,
}

impl CacheStats {
    /// Hits over total lookups; 0 before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    scores: Arc<Tensor>,
    last_used: u64,
    /// Model epoch the scores were computed under. Entries from an older
    /// epoch are dropped on lookup instead of served: after a model
    /// hot-swap their memoized scores describe the *previous* weights.
    epoch: u64,
}

struct Lru {
    /// One map per [`ScoreRows`] kind, indexed by [`Lru::slot`].
    maps: [HashMap<Vec<u32>, Entry>; 2],
    clock: u64,
    capacity: usize,
}

impl Lru {
    fn slot(rows: ScoreRows) -> usize {
        match rows {
            ScoreRows::All => 0,
            ScoreRows::Last => 1,
        }
    }

    fn len(&self) -> usize {
        self.maps.iter().map(HashMap::len).sum()
    }
}

/// Thread-safe LRU memo of `(padded window, rows) -> score rows`.
pub struct ScoreCache {
    inner: Mutex<Lru>,
    /// Current model epoch. Bumped by [`ScoreCache::advance_epoch`] while
    /// holding `inner`, so a lookup or insert under the lock sees one value
    /// throughout; [`ScoreCache::epoch`] reads it without the lock.
    epoch: AtomicU64,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    stale_drops: Counter,
    resident: Gauge,
    /// Wall time of [`ScoreCache::get`] — the cache-lookup stage of the
    /// serving latency budget (`ucad_latency_cache_lookup_seconds`).
    lookup_seconds: Histogram,
}

impl ScoreCache {
    /// Creates a cache holding at most `capacity` entries (of both
    /// [`ScoreRows`] kinds together).
    ///
    /// # Panics
    /// Panics when `capacity` is zero (a disabled cache is expressed as
    /// `Option::None` at the call sites, not as a zero-capacity cache).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "cache capacity must be at least 1");
        ScoreCache {
            inner: Mutex::new(Lru {
                maps: [HashMap::new(), HashMap::new()],
                clock: 0,
                capacity,
            }),
            epoch: AtomicU64::new(0),
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
            stale_drops: Counter::new(),
            resident: Gauge::new(),
            lookup_seconds: Histogram::new(latency_log_bounds()),
        }
    }

    /// Marks every resident entry stale by advancing the model epoch: the
    /// serving engine calls this when it hot-swaps the model, so scores
    /// memoized from the previous weights are never served against the new
    /// ones. Stale entries are dropped lazily on their next lookup (counted
    /// on `ucad_cache_stale_drops_total`) or displaced by fresh inserts.
    /// Returns the new epoch.
    pub fn advance_epoch(&self) -> u64 {
        let _lru = self.inner.lock().expect("score cache poisoned");
        self.epoch.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// The current model epoch (0 until the first swap).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Exposes this cache's counters on a metrics registry under
    /// `ucad_cache_{hits,misses,evictions}_total` and `ucad_cache_len`,
    /// tagged with the given labels. The registry adopts the cache's own
    /// cells, so [`ScoreCache::stats`] and the exposition always agree.
    pub fn register_metrics(&self, registry: &Registry, labels: &[(&str, &str)]) {
        registry.register_counter("ucad_cache_hits_total", labels, &self.hits);
        registry.register_counter("ucad_cache_misses_total", labels, &self.misses);
        registry.register_counter("ucad_cache_evictions_total", labels, &self.evictions);
        registry.register_counter("ucad_cache_stale_drops_total", labels, &self.stale_drops);
        registry.register_gauge("ucad_cache_len", labels, &self.resident);
        registry.describe(
            "ucad_latency_cache_lookup_seconds",
            MetricKind::Histogram,
            "Score-cache lookup latency (hit or miss)",
        );
        registry.register_histogram(
            "ucad_latency_cache_lookup_seconds",
            labels,
            &self.lookup_seconds,
        );
    }

    /// Looks up the `rows` of a padded window, refreshing its recency on a
    /// hit. An entry memoized under an older model epoch is removed and
    /// reported as a miss — a hot-swapped model must never be served its
    /// predecessor's scores.
    pub fn get(&self, window: &[u32], rows: ScoreRows) -> Option<Arc<Tensor>> {
        let start = std::time::Instant::now();
        let result = self.get_inner(window, rows);
        self.lookup_seconds.observe(start.elapsed().as_secs_f64());
        result
    }

    fn get_inner(&self, window: &[u32], rows: ScoreRows) -> Option<Arc<Tensor>> {
        let mut lru = self.inner.lock().expect("score cache poisoned");
        lru.clock += 1;
        let clock = lru.clock;
        let epoch = self.epoch.load(Ordering::SeqCst);
        let map = &mut lru.maps[Lru::slot(rows)];
        match map.get_mut(window) {
            Some(entry) if entry.epoch == epoch => {
                entry.last_used = clock;
                self.hits.inc();
                Some(Arc::clone(&entry.scores))
            }
            Some(_) => {
                map.remove(window);
                self.stale_drops.inc();
                self.misses.inc();
                self.resident.set(lru.len() as f64);
                None
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Inserts the freshly computed `rows` of a window's scores, evicting
    /// the least recently used entry of either kind when at capacity.
    pub fn insert(&self, window: Vec<u32>, rows: ScoreRows, scores: Arc<Tensor>) {
        let mut lru = self.inner.lock().expect("score cache poisoned");
        lru.clock += 1;
        let clock = lru.clock;
        let slot = Lru::slot(rows);
        if !lru.maps[slot].contains_key(&window) && lru.len() >= lru.capacity {
            if let Some((victim_slot, oldest)) = lru
                .maps
                .iter()
                .enumerate()
                .flat_map(|(i, map)| map.iter().map(move |(k, e)| (e.last_used, i, k)))
                .min_by_key(|&(last_used, _, _)| last_used)
                .map(|(_, i, k)| (i, k.clone()))
            {
                lru.maps[victim_slot].remove(&oldest);
                self.evictions.inc();
            }
        }
        let epoch = self.epoch.load(Ordering::SeqCst);
        lru.maps[slot].insert(
            window,
            Entry {
                scores,
                last_used: clock,
                epoch,
            },
        );
        self.resident.set(lru.len() as f64);
    }

    /// Entries currently resident, of both kinds.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("score cache poisoned").len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot (a view over the same cells
    /// [`ScoreCache::register_metrics`] exposes).
    pub fn stats(&self) -> CacheStats {
        let lru = self.inner.lock().expect("score cache poisoned");
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            stale_drops: self.stale_drops.get(),
            len: lru.len(),
            capacity: lru.capacity,
        }
    }

    /// Hits over total lookups; 0 before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        self.stats().hit_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scores(v: f32) -> Arc<Tensor> {
        Arc::new(Tensor::full(2, 3, v))
    }

    #[test]
    fn hit_returns_the_inserted_tensor() {
        let cache = ScoreCache::new(4);
        assert!(cache.get(&[1, 2, 3], ScoreRows::All).is_none());
        cache.insert(vec![1, 2, 3], ScoreRows::All, scores(0.5));
        let hit = cache.get(&[1, 2, 3], ScoreRows::All).expect("hit");
        assert_eq!(*hit, Tensor::full(2, 3, 0.5));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.len), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eviction_removes_least_recently_used() {
        let cache = ScoreCache::new(2);
        cache.insert(vec![1], ScoreRows::All, scores(1.0));
        cache.insert(vec![2], ScoreRows::All, scores(2.0));
        // Touch window [1] so [2] becomes the LRU victim.
        assert!(cache.get(&[1], ScoreRows::All).is_some());
        cache.insert(vec![3], ScoreRows::All, scores(3.0));
        assert_eq!(cache.len(), 2);
        assert!(
            cache.get(&[2], ScoreRows::All).is_none(),
            "LRU entry must be evicted"
        );
        assert!(cache.get(&[1], ScoreRows::All).is_some());
        assert!(cache.get(&[3], ScoreRows::All).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn registered_metrics_mirror_stats() {
        let reg = Registry::new();
        let cache = ScoreCache::new(2);
        cache.register_metrics(&reg, &[("cache", "score")]);
        cache.insert(vec![1], ScoreRows::All, scores(1.0));
        assert!(cache.get(&[1], ScoreRows::All).is_some());
        assert!(cache.get(&[2], ScoreRows::All).is_none());
        let text = reg.render_prometheus();
        assert!(text.contains("ucad_cache_hits_total{cache=\"score\"} 1"));
        assert!(text.contains("ucad_cache_misses_total{cache=\"score\"} 1"));
        assert!(text.contains("ucad_cache_len{cache=\"score\"} 1"));
    }

    #[test]
    fn reinserting_existing_key_does_not_evict() {
        let cache = ScoreCache::new(2);
        cache.insert(vec![1], ScoreRows::All, scores(1.0));
        cache.insert(vec![2], ScoreRows::All, scores(2.0));
        cache.insert(vec![1], ScoreRows::All, scores(9.0));
        assert_eq!(cache.len(), 2);
        assert_eq!(
            *cache.get(&[1], ScoreRows::All).unwrap(),
            Tensor::full(2, 3, 9.0)
        );
        assert!(cache.get(&[2], ScoreRows::All).is_some());
    }

    #[test]
    fn advance_epoch_invalidates_resident_entries() {
        let cache = ScoreCache::new(4);
        cache.insert(vec![1, 2], ScoreRows::All, scores(1.0));
        assert!(cache.get(&[1, 2], ScoreRows::All).is_some());
        assert_eq!(cache.advance_epoch(), 1);
        // The pre-swap entry must not be served against the new epoch.
        assert!(
            cache.get(&[1, 2], ScoreRows::All).is_none(),
            "stale entry served after swap"
        );
        let s = cache.stats();
        assert_eq!(s.stale_drops, 1);
        assert_eq!(s.len, 0, "stale entry must be dropped, not retained");
        // A fresh insert under the new epoch hits normally.
        cache.insert(vec![1, 2], ScoreRows::All, scores(2.0));
        assert_eq!(
            *cache.get(&[1, 2], ScoreRows::All).unwrap(),
            Tensor::full(2, 3, 2.0)
        );
        assert_eq!(cache.epoch(), 1);
    }

    #[test]
    fn stale_drop_counts_as_miss_in_metrics() {
        let reg = Registry::new();
        let cache = ScoreCache::new(2);
        cache.register_metrics(&reg, &[("cache", "score")]);
        cache.insert(vec![7], ScoreRows::All, scores(1.0));
        cache.advance_epoch();
        assert!(cache.get(&[7], ScoreRows::All).is_none());
        let text = reg.render_prometheus();
        assert!(text.contains("ucad_cache_stale_drops_total{cache=\"score\"} 1"));
        assert!(text.contains("ucad_cache_misses_total{cache=\"score\"} 1"));
        assert!(text.contains("ucad_cache_len{cache=\"score\"} 0"));
    }

    #[test]
    fn row_kinds_never_alias_and_share_capacity() {
        let cache = ScoreCache::new(2);
        cache.insert(vec![1, 2], ScoreRows::All, scores(1.0));
        // The same window under the other kind is a different entry.
        assert!(cache.get(&[1, 2], ScoreRows::Last).is_none());
        cache.insert(
            vec![1, 2],
            ScoreRows::Last,
            Arc::new(Tensor::full(1, 3, 2.0)),
        );
        assert_eq!(cache.len(), 2);
        assert_eq!(
            *cache.get(&[1, 2], ScoreRows::All).unwrap(),
            Tensor::full(2, 3, 1.0)
        );
        assert_eq!(
            *cache.get(&[1, 2], ScoreRows::Last).unwrap(),
            Tensor::full(1, 3, 2.0)
        );
        // Capacity counts both kinds: the least recently used entry (the
        // full matrix) is evicted first.
        cache.insert(vec![3], ScoreRows::Last, Arc::new(Tensor::full(1, 3, 3.0)));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&[1, 2], ScoreRows::All).is_none());
        assert!(cache.get(&[1, 2], ScoreRows::Last).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn empty_cache_reports_zero_rate() {
        let cache = ScoreCache::new(1);
        assert!(cache.is_empty());
        assert_eq!(cache.hit_rate(), 0.0);
    }
}
