//! The per-generation index result cache shared by every query an
//! [`Engine`](crate::Engine) answers.
//!
//! Every CL-tree query algorithm spends its time in two pure primitives:
//!
//! * **core extraction** — materialising the vertex set of the subtree that
//!   [`locate_core`](acq_cltree::ClTree::locate_core) returned (the k-ĉore
//!   containing the query vertex);
//! * **candidate-subtree lookup** — collecting the subtree vertices that
//!   carry a candidate keyword set (the paper's *keyword-checking*).
//!
//! Both depend only on the immutable index, the degree bound `k` and the
//! keyword set, so their results can be shared across every query of a batch
//! (and across batches) through a bounded LRU. Because the cached values are
//! *exactly* the vectors/subsets the uncached code path would have produced —
//! same contents, same order — caching is invisible to query results: a
//! cached engine's output is byte-identical to a cache-less one's.

use crate::exec::lru::LruCache;
use acq_cltree::{ClTree, NodeId};
use acq_graph::{AttributedGraph, KeywordId, VertexId, VertexSubset};
use acq_sync::sync::atomic::{AtomicU64, Ordering};
use acq_sync::sync::{Arc, Mutex};
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};

/// Cache key: which CL-tree subtree, which degree bound, which keyword set.
///
/// `node` must be part of the key — two query vertices with the same `(k, S)`
/// can live in different ĉores — while `kind` keeps core-extraction and
/// keyword-pool entries apart even when they agree on every other field
/// (a keyword pool can legitimately have an empty keyword set). `inverted`
/// records whether a pool was produced through the inverted lists or by the
/// `*`-ablation subtree scan, so the two code paths never serve each other's
/// entries (their vertex orders may differ).
///
/// `k` never changes the computed value (the subtree of a node is fixed), so
/// keying on it trades some cross-`k` reuse for the `(k, keyword-set)` shape
/// the serving layer reasons about; collapsing compressed levels into one
/// entry is tracked as a cache-policy item in `ROADMAP.md`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Which kind of result the entry holds.
    pub kind: CacheKind,
    /// Root of the subtree the result was computed from.
    pub node: NodeId,
    /// The query's minimum-degree bound `k`.
    pub k: u32,
    /// Sorted candidate keyword set; empty for core extraction.
    pub keywords: Vec<KeywordId>,
    /// Whether inverted lists were used to compute the entry (always `false`
    /// for core extraction).
    pub inverted: bool,
}

/// The kind of result a cache entry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheKind {
    /// A subtree vertex list (core extraction).
    Core,
    /// A keyword-filtered vertex pool (candidate subtree).
    Pool,
}

/// A cached value: either a subtree vertex list (core extraction) or a
/// keyword-filtered vertex pool (candidate subtree), both behind `Arc` so a
/// hit is a pointer copy.
#[derive(Debug, Clone)]
enum CacheValue {
    Vertices(Arc<Vec<VertexId>>),
    Pool(Arc<VertexSubset>),
}

/// Point-in-time counters describing how a cache has been used.
///
/// Serialisable so a serving front-end can export the counters verbatim
/// (see the `Metrics` frame of `acq-server` and `docs/PROTOCOL.md`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute their result.
    pub misses: u64,
    /// Entries displaced by the LRU bound.
    pub evictions: u64,
    /// Entries carried over from the previous generation's cache at swap
    /// time (0 unless the cache was seeded by the live-update pipeline's
    /// carry-over — see `Engine::apply_updates`).
    pub carried: u64,
    /// Entries of the previous generation dropped at swap time because a
    /// delta touched their CL-tree node (or the skeleton was rebuilt).
    pub dropped: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0.0 when unused).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Capacity at or above which the cache shards its entries over
/// [`MAX_SEGMENTS`] independently locked LRUs. Below the threshold a single
/// segment keeps exact global-LRU semantics (a handful of entries split eight
/// ways would evict erratically and gain nothing from extra locks).
pub const SEGMENT_CAPACITY_THRESHOLD: usize = 64;

/// Number of lock segments used by large caches.
pub const MAX_SEGMENTS: usize = 8;

/// A bounded, thread-safe cache for core-extraction and candidate-subtree
/// results, shared by every query and batch worker of one engine generation.
///
/// # Lock segmentation
///
/// At serving capacities (≥ `SEGMENT_CAPACITY_THRESHOLD`) the entries are
/// sharded by key hash over `MAX_SEGMENTS` independently locked LRUs, so
/// concurrent batch workers contend only when they touch the same segment —
/// this is what fixed the batch-4-threads > batch-1-thread inversion the
/// single global mutex used to cause (every worker of every in-flight query
/// serialised on one lock). Each segment enforces its share of the capacity;
/// recency is exact *within* a segment, approximate globally, which changes
/// nothing about result bytes (the cache only ever returns values the
/// uncached path would have computed).
///
/// The disabled cache ([`IndexCache::disabled`]) computes everything directly
/// and stores nothing; it is what the free-function algorithm entry points
/// (`dec`, `inc_s`, `sw`, …) and a `cache_capacity(0)` engine use, so
/// sequential queries pay no synchronisation cost.
#[derive(Debug)]
pub struct IndexCache {
    /// Hash-sharded segments; empty = caching disabled (compute directly,
    /// store nothing). Small capacities use a single segment, preserving
    /// exact global-LRU eviction order.
    segments: Vec<Mutex<LruCache<CacheKey, CacheValue>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    carried: AtomicU64,
    dropped: AtomicU64,
}

impl IndexCache {
    /// A cache bounded to `capacity` entries. A capacity of 0 behaves like
    /// [`IndexCache::disabled`].
    pub fn with_capacity(capacity: usize) -> Self {
        let segments = if capacity == 0 {
            Vec::new()
        } else if capacity < SEGMENT_CAPACITY_THRESHOLD {
            vec![Mutex::new(LruCache::new(capacity))]
        } else {
            (0..MAX_SEGMENTS)
                .map(|i| {
                    let share = capacity / MAX_SEGMENTS + usize::from(i < capacity % MAX_SEGMENTS);
                    Mutex::new(LruCache::new(share))
                })
                .collect()
        };
        Self {
            segments,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            carried: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// The no-op cache: every lookup computes directly and nothing is stored.
    pub const fn disabled() -> Self {
        Self {
            segments: Vec::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            carried: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// The segment owning `key`, or `None` when disabled. Single-segment
    /// caches skip the hash.
    fn segment(&self, key: &CacheKey) -> Option<&Mutex<LruCache<CacheKey, CacheValue>>> {
        match self.segments.len() {
            0 => None,
            1 => Some(&self.segments[0]),
            n => {
                let mut hasher = std::collections::hash_map::DefaultHasher::new();
                key.hash(&mut hasher);
                Some(&self.segments[(hasher.finish() as usize) % n])
            }
        }
    }

    /// Seeds this (freshly created) cache with the entries of `old` whose key
    /// passes `keep`, preserving their relative recency; entries failing the
    /// filter are dropped. Records the carried/dropped counts in
    /// [`stats`](Self::stats) and returns them.
    ///
    /// This is the swap-aware carry-over of the live-update pipeline: when a
    /// delta batch leaves the CL-tree skeleton untouched (stable node ids),
    /// every entry whose node no delta staled is still byte-identical to what
    /// the new generation would recompute, so it moves over instead of being
    /// thrown away with the generation.
    pub(crate) fn carry_from(
        &self,
        old: &IndexCache,
        mut keep: impl FnMut(&CacheKey) -> bool,
    ) -> (u64, u64) {
        let mut carried = 0u64;
        let mut dropped = 0u64;
        if self.segments.is_empty() {
            dropped = old.len() as u64;
        } else {
            // Walk every old segment LRU→MRU and re-insert through the new
            // cache's own segment map: when old and new share a layout (the
            // swap path always builds the successor with the same capacity),
            // each key lands in the same segment it came from and per-segment
            // recency is reproduced exactly.
            for old_segment in &old.segments {
                let old_guard = old_segment.lock().expect("cache mutex poisoned");
                for (key, value) in old_guard.iter() {
                    if keep(key) {
                        self.segment(key)
                            .expect("segments checked non-empty")
                            .lock()
                            .expect("cache mutex poisoned")
                            .insert(key.clone(), value.clone());
                        carried += 1;
                    } else {
                        dropped += 1;
                    }
                }
            }
        }
        self.carried.store(carried, Ordering::Relaxed);
        self.dropped.store(dropped, Ordering::Relaxed);
        (carried, dropped)
    }

    /// Whether this cache actually stores entries.
    pub fn is_enabled(&self) -> bool {
        !self.segments.is_empty()
    }

    /// A snapshot of the hit/miss/eviction and swap carry-over counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            carried: self.carried.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }

    /// Number of live entries across all segments (0 when disabled).
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.lock().expect("cache mutex poisoned").len()).sum()
    }

    /// Whether the cache currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// **Core extraction**: the vertex list of the subtree rooted at `node`
    /// (the k-ĉore a query located), cached under `(node, k, ∅)`.
    ///
    /// The returned vector is exactly
    /// [`ClTree::subtree_vertices`]`(node)` — same contents, same order — so
    /// callers behave identically on hits and misses.
    pub fn subtree_vertices(&self, index: &ClTree, node: NodeId, k: u32) -> Arc<Vec<VertexId>> {
        let key =
            CacheKey { kind: CacheKind::Core, node, k, keywords: Vec::new(), inverted: false };
        if let Some(CacheValue::Vertices(v)) = self.lookup(&key) {
            return v;
        }
        let computed = Arc::new(index.subtree_vertices(node));
        self.store(key, CacheValue::Vertices(Arc::clone(&computed)));
        computed
    }

    /// **Candidate subtree** (keyword-checking): the pool of subtree vertices
    /// carrying every keyword of `keywords`, cached under
    /// `(node, k, keywords)`.
    ///
    /// `use_inverted_lists` selects the paper's inverted-list intersection or
    /// the `*`-ablation subtree scan, exactly like the uncached
    /// implementations in [`crate::algorithms`].
    pub fn keyword_pool(
        &self,
        graph: &AttributedGraph,
        index: &ClTree,
        node: NodeId,
        k: u32,
        keywords: &[KeywordId],
        use_inverted_lists: bool,
    ) -> Arc<VertexSubset> {
        let inverted = use_inverted_lists && index.has_inverted_lists();
        let key =
            CacheKey { kind: CacheKind::Pool, node, k, keywords: keywords.to_vec(), inverted };
        if let Some(CacheValue::Pool(p)) = self.lookup(&key) {
            return p;
        }
        let vertices = if inverted {
            index.vertices_with_keywords_under(node, keywords)
        } else {
            index.vertices_with_keywords_under_scan(graph, node, keywords)
        };
        let pool = Arc::new(VertexSubset::from_iter(graph.num_vertices(), vertices));
        self.store(key, CacheValue::Pool(Arc::clone(&pool)));
        pool
    }

    /// Records the swap-time drop count on a cache that was **not** seeded by
    /// [`carry_from`](Self::carry_from) — the rebuild paths of the update
    /// pipeline drop every entry of the predecessor cache, and
    /// [`stats`](Self::stats) must say so.
    pub(crate) fn note_swap_drop(&self, dropped: u64) {
        self.dropped.store(dropped, Ordering::Relaxed);
    }

    fn lookup(&self, key: &CacheKey) -> Option<CacheValue> {
        let segment = self.segment(key)?;
        let found = segment.lock().expect("cache mutex poisoned").get(key).cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    fn store(&self, key: CacheKey, value: CacheValue) {
        if let Some(segment) = self.segment(&key) {
            if segment.lock().expect("cache mutex poisoned").insert(key, value).is_some() {
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acq_cltree::build_advanced;
    use acq_graph::paper_figure3_graph;

    #[test]
    fn cached_subtree_equals_direct_navigation() {
        let g = paper_figure3_graph();
        let index = build_advanced(&g, true);
        let cache = IndexCache::with_capacity(16);
        let a = g.vertex_by_label("A").unwrap();
        let node = index.locate_core(a, 2).unwrap();
        let first = cache.subtree_vertices(&index, node, 2);
        assert_eq!(*first, index.subtree_vertices(node), "identical contents and order");
        let second = cache.subtree_vertices(&index, node, 2);
        assert!(Arc::ptr_eq(&first, &second), "second lookup is a cache hit");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!(stats.hit_rate() > 0.49 && stats.hit_rate() < 0.51);
    }

    #[test]
    fn cached_pool_matches_both_lookup_paths() {
        let g = paper_figure3_graph();
        let index = build_advanced(&g, true);
        let cache = IndexCache::with_capacity(16);
        let x = g.dictionary().get("x").unwrap();
        let root = index.root();
        let via_lists = cache.keyword_pool(&g, &index, root, 1, &[x], true);
        let via_scan = cache.keyword_pool(&g, &index, root, 1, &[x], false);
        assert_eq!(via_lists.sorted_members(), via_scan.sorted_members());
        assert_eq!(cache.len(), 2, "the two code paths cache separately");
    }

    #[test]
    fn disabled_cache_computes_but_never_stores() {
        let g = paper_figure3_graph();
        let index = build_advanced(&g, true);
        let cache = IndexCache::disabled();
        assert!(!cache.is_enabled());
        let node = index.root();
        let first = cache.subtree_vertices(&index, node, 1);
        let second = cache.subtree_vertices(&index, node, 1);
        assert_eq!(*first, *second);
        assert!(!Arc::ptr_eq(&first, &second), "nothing was cached");
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn empty_keyword_pool_does_not_collide_with_core_entry() {
        // A keyword pool with an empty keyword set shares node/k/keywords
        // with the core-extraction entry; the `kind` discriminant must keep
        // them apart (regression: they used to overwrite each other, and the
        // cross-kind lookup was miscounted as a hit).
        let g = paper_figure3_graph();
        let index = build_advanced(&g, false); // no inverted lists
        let cache = IndexCache::with_capacity(16);
        let node = index.root();
        let core = cache.subtree_vertices(&index, node, 1);
        let pool = cache.keyword_pool(&g, &index, node, 1, &[], false);
        assert_eq!(cache.len(), 2, "core and empty-keyword pool are distinct entries");
        assert_eq!(cache.stats().hits, 0, "kinds never serve each other");
        // Both stay retrievable as genuine hits.
        assert!(Arc::ptr_eq(&core, &cache.subtree_vertices(&index, node, 1)));
        assert!(Arc::ptr_eq(&pool, &cache.keyword_pool(&g, &index, node, 1, &[], false)));
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn carry_from_moves_only_kept_entries_and_counts_both() {
        let g = paper_figure3_graph();
        let index = build_advanced(&g, true);
        let old = IndexCache::with_capacity(16);
        let a = g.vertex_by_label("A").unwrap();
        let node2 = index.locate_core(a, 2).unwrap();
        let node3 = index.locate_core(a, 3).unwrap();
        let kept = old.subtree_vertices(&index, node2, 2);
        old.subtree_vertices(&index, node3, 3);
        assert_eq!(old.len(), 2);

        let fresh = IndexCache::with_capacity(16);
        let (carried, dropped) = fresh.carry_from(&old, |key| key.node == node2);
        assert_eq!((carried, dropped), (1, 1));
        assert_eq!(fresh.len(), 1);
        let stats = fresh.stats();
        assert_eq!((stats.carried, stats.dropped), (1, 1));
        // The carried entry is served as a genuine hit, pointer-identical.
        let hit = fresh.subtree_vertices(&index, node2, 2);
        assert!(Arc::ptr_eq(&kept, &hit), "carried entry survives by pointer");
        assert_eq!(fresh.stats().hits, 1);
        // Carrying into a disabled cache just counts drops.
        let disabled = IndexCache::disabled();
        let (carried, dropped) = disabled.carry_from(&old, |_| true);
        assert_eq!((carried, dropped), (0, 2));
    }

    #[test]
    fn carry_from_preserves_recency_so_eviction_hits_the_cold_entry() {
        // Regression pin: `carry_from` must reproduce the old cache's
        // LRU→MRU order in the new cache, not just its contents. If the
        // iteration order regressed (e.g. to insertion order), the first
        // post-swap eviction would throw out the *hottest* entry.
        let g = paper_figure3_graph();
        let index = build_advanced(&g, true);
        let a = g.vertex_by_label("A").unwrap();
        let node1 = index.locate_core(a, 1).unwrap();
        let node2 = index.locate_core(a, 2).unwrap();
        let node3 = index.locate_core(a, 3).unwrap();

        let old = IndexCache::with_capacity(2);
        let hot = old.subtree_vertices(&index, node1, 1);
        let cold = old.subtree_vertices(&index, node2, 2);
        // Touch the k=1 entry so recency is (k=2 cold, k=1 hot) — the
        // reverse of insertion order, which is what makes the pin bite.
        assert!(Arc::ptr_eq(&hot, &old.subtree_vertices(&index, node1, 1)));

        let fresh = IndexCache::with_capacity(2);
        let (carried, dropped) = fresh.carry_from(&old, |_| true);
        assert_eq!((carried, dropped), (2, 0));

        // One new entry through the full cache must evict the cold one.
        fresh.subtree_vertices(&index, node3, 3);
        assert_eq!(fresh.stats().evictions, 1);
        assert!(
            Arc::ptr_eq(&hot, &fresh.subtree_vertices(&index, node1, 1)),
            "the recently used entry must survive the post-carry eviction"
        );
        let recomputed = fresh.subtree_vertices(&index, node2, 2);
        assert!(
            !Arc::ptr_eq(&cold, &recomputed),
            "the least recently used entry is the one that was evicted"
        );
    }

    #[test]
    fn segmented_cache_preserves_contents_and_counters() {
        // A serving-sized cache shards over MAX_SEGMENTS locks; entries must
        // stay individually retrievable, counters must aggregate across
        // segments, and carry into an identically sized successor must keep
        // every entry hot (pointer-identical hits).
        let g = paper_figure3_graph();
        let index = build_advanced(&g, true);
        let cache = IndexCache::with_capacity(SEGMENT_CAPACITY_THRESHOLD);
        let a = g.vertex_by_label("A").unwrap();
        let x = g.dictionary().get("x").unwrap();
        let y = g.dictionary().get("y").unwrap();
        let mut entries = Vec::new();
        for k in 1..=3u32 {
            let node = index.locate_core(a, k).unwrap();
            entries.push((node, k));
            cache.subtree_vertices(&index, node, k);
            cache.keyword_pool(&g, &index, node, k, &[x], true);
            cache.keyword_pool(&g, &index, node, k, &[x, y], true);
        }
        assert_eq!(cache.len(), 9);
        assert_eq!(cache.stats().misses, 9);
        for &(node, k) in &entries {
            cache.subtree_vertices(&index, node, k);
            cache.keyword_pool(&g, &index, node, k, &[x], true);
            cache.keyword_pool(&g, &index, node, k, &[x, y], true);
        }
        assert_eq!(cache.stats().hits, 9, "every entry is retrievable across segments");

        let fresh = IndexCache::with_capacity(SEGMENT_CAPACITY_THRESHOLD);
        let (carried, dropped) = fresh.carry_from(&cache, |_| true);
        assert_eq!((carried, dropped), (9, 0));
        assert_eq!(fresh.len(), 9);
        let before = fresh.stats().hits;
        for &(node, k) in &entries {
            let direct = index.subtree_vertices(node);
            assert_eq!(*fresh.subtree_vertices(&index, node, k), direct);
        }
        assert_eq!(fresh.stats().hits, before + entries.len() as u64);
    }

    #[test]
    fn lru_bound_evicts_under_pressure() {
        let g = paper_figure3_graph();
        let index = build_advanced(&g, true);
        let cache = IndexCache::with_capacity(2);
        // Three distinct keys through a capacity-2 cache must evict.
        for k in 1..=3u32 {
            let a = g.vertex_by_label("A").unwrap();
            let node = index.locate_core(a, k).unwrap();
            cache.subtree_vertices(&index, node, k);
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
    }
}
