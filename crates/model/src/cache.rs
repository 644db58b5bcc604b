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
//! never disagree. Eviction is least-recently-used: every lookup or insert
//! takes the next stamp of a strictly increasing clock, and a recency index
//! ordered by stamp names the victim in `O(log capacity)`, so a miss at
//! capacity never scans the resident entries while the other shards wait
//! on the lock.
//!
//! [`TransDas::position_scores`]: crate::TransDas::position_scores

use std::collections::{BTreeMap, HashMap};
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
    /// Every resident entry by its `last_used` stamp: `(slot, window)`.
    /// Stamps are unique (the clock strictly increases), so the first key
    /// is the least recently used entry of either kind.
    recency: BTreeMap<u64, (usize, Vec<u32>)>,
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
                recency: BTreeMap::new(),
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
        let mut guard = self.inner.lock().expect("score cache poisoned");
        let lru = &mut *guard;
        lru.clock += 1;
        let clock = lru.clock;
        let epoch = self.epoch.load(Ordering::SeqCst);
        let slot = Lru::slot(rows);
        match lru.maps[slot].get_mut(window) {
            Some(entry) if entry.epoch == epoch => {
                let key = lru
                    .recency
                    .remove(&entry.last_used)
                    .expect("every resident entry is indexed");
                lru.recency.insert(clock, key);
                entry.last_used = clock;
                self.hits.inc();
                Some(Arc::clone(&entry.scores))
            }
            Some(entry) => {
                lru.recency.remove(&entry.last_used);
                lru.maps[slot].remove(window);
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
        let mut guard = self.inner.lock().expect("score cache poisoned");
        let lru = &mut *guard;
        lru.clock += 1;
        let clock = lru.clock;
        let slot = Lru::slot(rows);
        if !lru.maps[slot].contains_key(&window) && lru.len() >= lru.capacity {
            if let Some((_, (victim_slot, oldest))) = lru.recency.pop_first() {
                lru.maps[victim_slot].remove(&oldest);
                self.evictions.inc();
            }
        }
        let epoch = self.epoch.load(Ordering::SeqCst);
        let entry = Entry {
            scores,
            last_used: clock,
            epoch,
        };
        lru.recency.insert(clock, (slot, window.clone()));
        if let Some(old) = lru.maps[slot].insert(window, entry) {
            lru.recency.remove(&old.last_used);
        }
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

    /// The eviction rule the recency index replaces: scan every resident
    /// entry of both kinds for the smallest `last_used` stamp.
    #[derive(Default)]
    struct ScanLru {
        maps: [HashMap<Vec<u32>, (u64, u64)>; 2],
        clock: u64,
        epoch: u64,
        hits: u64,
        misses: u64,
        evictions: u64,
        stale_drops: u64,
    }

    impl ScanLru {
        fn get(&mut self, window: &[u32], slot: usize) -> bool {
            self.clock += 1;
            match self.maps[slot].get_mut(window) {
                Some((last_used, epoch)) if *epoch == self.epoch => {
                    *last_used = self.clock;
                    self.hits += 1;
                    true
                }
                Some(_) => {
                    self.maps[slot].remove(window);
                    self.stale_drops += 1;
                    self.misses += 1;
                    false
                }
                None => {
                    self.misses += 1;
                    false
                }
            }
        }

        fn insert(&mut self, window: Vec<u32>, slot: usize, capacity: usize) {
            self.clock += 1;
            let resident: usize = self.maps.iter().map(HashMap::len).sum();
            if !self.maps[slot].contains_key(&window) && resident >= capacity {
                let (victim_slot, oldest) = self
                    .maps
                    .iter()
                    .enumerate()
                    .flat_map(|(i, m)| m.iter().map(move |(k, e)| (e.0, i, k.clone())))
                    .min()
                    .map(|(_, i, k)| (i, k))
                    .expect("a full cache has a victim");
                self.maps[victim_slot].remove(&oldest);
                self.evictions += 1;
            }
            self.maps[slot].insert(window, (self.clock, self.epoch));
        }

        fn resident(&self) -> Vec<(usize, Vec<u32>)> {
            let mut all: Vec<(usize, Vec<u32>)> = (0..2)
                .flat_map(|i| self.maps[i].keys().map(move |k| (i, k.clone())))
                .collect();
            all.sort();
            all
        }
    }

    #[test]
    fn recency_index_evicts_exactly_what_the_full_scan_evicts() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let capacity = rng.gen_range(1..=8);
            let cache = ScoreCache::new(capacity);
            let mut reference = ScanLru::default();
            for step in 0..2000 {
                let window = vec![rng.gen_range(0..12u32), rng.gen_range(0..2u32)];
                let (rows, slot) = if rng.gen_range(0..2) == 0 {
                    (ScoreRows::All, 0)
                } else {
                    (ScoreRows::Last, 1)
                };
                match rng.gen_range(0..20) {
                    0 => {
                        cache.advance_epoch();
                        reference.epoch += 1;
                    }
                    1..=9 => {
                        let hit = cache.get(&window, rows).is_some();
                        assert_eq!(hit, reference.get(&window, slot), "seed {seed} step {step}");
                    }
                    _ => {
                        cache.insert(window.clone(), rows, scores(step as f32));
                        reference.insert(window, slot, capacity);
                    }
                }
                let s = cache.stats();
                assert_eq!(
                    (s.hits, s.misses, s.evictions, s.stale_drops),
                    (
                        reference.hits,
                        reference.misses,
                        reference.evictions,
                        reference.stale_drops
                    ),
                    "seed {seed} step {step}"
                );
                let lru = cache.inner.lock().unwrap();
                let mut resident: Vec<(usize, Vec<u32>)> = (0..2)
                    .flat_map(|i| lru.maps[i].keys().map(move |k| (i, k.clone())))
                    .collect();
                resident.sort();
                assert_eq!(resident, reference.resident(), "seed {seed} step {step}");
                let mut indexed: Vec<(usize, Vec<u32>)> = lru.recency.values().cloned().collect();
                indexed.sort();
                assert_eq!(
                    indexed, resident,
                    "index out of step at seed {seed} step {step}"
                );
            }
            assert!(reference.evictions > 0 && reference.stale_drops > 0 && reference.hits > 0);
        }
    }

    #[test]
    fn empty_cache_reports_zero_rate() {
        let cache = ScoreCache::new(1);
        assert!(cache.is_empty());
        assert_eq!(cache.hit_rate(), 0.0);
    }
}
