//! Bounded worker-side caches: one LRU, two instances.
//!
//! * [`StoreCache`] holds campaign checkpoint stores. Re-shipping a
//!   multi-megabyte [`CheckpointStore`] to every worker on every
//!   campaign is the single biggest waste on a real network: the store
//!   is a pure function of `(machine, program, instruction budget,
//!   checkpoint interval)`, and a validation sweep re-runs the same
//!   four programs per invocation. So every job is keyed by a 64-bit
//!   content hash ([`avf_isa::wire::content_hash64`]) and a worker
//!   answers the `JOB_SETUP` handshake with `HAVE` (skip the bytes /
//!   the golden re-run entirely) or `NEED`.
//! * [`EvalCache`] holds GA fitness scores keyed by `(context
//!   fingerprint, genome bits)`: elites re-scored across generations
//!   hit here instead of paying a simulation.
//!
//! Both are instances of the one generic `Lru`, bounded by entry count and
//! by total weight (store bytes, or one per score) and evicting
//! least-recently-used entries first, so a long-lived `serve` process
//! cannot grow without limit. One instance of each is shared by every
//! connection of a server (`Arc` + mutex — store entries hold `Arc`s,
//! so a hit never copies blob bytes under the lock).

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::{Arc, Mutex};

use avf_sim::{CheckpointStore, DecodedCheckpoints, GoldenRun, PruneEvidence};

/// Default entry bound of a server's checkpoint-store cache.
pub const DEFAULT_CACHE_ENTRIES: usize = 16;

/// Default byte bound of a server's checkpoint-store cache
/// ([`CacheEntry::footprint`] bytes).
pub const DEFAULT_CACHE_BYTES: usize = 512 << 20;

/// Default capacity of a worker's genome score cache.
pub const DEFAULT_EVAL_CACHE_ENTRIES: usize = 4096;

/// Cache observability counters (monotonic over the cache's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to respect the bounds.
    pub evictions: u64,
    /// Entries currently held.
    pub entries: usize,
    /// Weight currently charged against the bound: bytes
    /// ([`CacheEntry::footprint`]) for a [`StoreCache`], entries for an
    /// [`EvalCache`].
    pub bytes: usize,
}

struct LruState<K, V> {
    /// `key -> (value, recency stamp)`.
    map: HashMap<K, (V, u64)>,
    /// Monotonic use counter backing the LRU order.
    clock: u64,
    /// Counters; `bytes` is the charged weight, `entries` is read off
    /// the map.
    stats: CacheStats,
}

/// A bounded, thread-safe LRU: at most `max_entries` entries (clamped
/// to at least one) and at most `max_weight` total weight, where
/// `weigh` charges each value. The newest entry is always admitted,
/// alone if it alone outweighs the bound — the caller already paid to
/// produce it, so refusing would only force an immediate recompute.
pub(crate) struct Lru<K, V> {
    state: Mutex<LruState<K, V>>,
    max_entries: usize,
    max_weight: usize,
    weigh: fn(&V) -> usize,
}

impl<K: Eq + Hash + Clone, V: Clone> Lru<K, V> {
    /// An empty LRU under the given bounds.
    #[must_use]
    pub fn new(max_entries: usize, max_weight: usize, weigh: fn(&V) -> usize) -> Lru<K, V> {
        Lru {
            state: Mutex::new(LruState {
                map: HashMap::new(),
                clock: 0,
                stats: CacheStats::default(),
            }),
            max_entries: max_entries.max(1),
            max_weight,
            weigh,
        }
    }

    /// Looks `key` up. A resident value that `accept` approves is a hit:
    /// its recency is refreshed and a clone handed back. Anything else
    /// — absent, or rejected by `accept` — counts as a miss.
    pub fn get(&self, key: &K, accept: impl FnOnce(&V) -> bool) -> Option<V> {
        let mut state = self.state.lock().expect("cache lock");
        state.clock += 1;
        let clock = state.clock;
        let hit = match state.map.get_mut(key) {
            Some((value, stamp)) if accept(value) => {
                *stamp = clock;
                Some(value.clone())
            }
            _ => None,
        };
        match hit {
            Some(_) => state.stats.hits += 1,
            None => state.stats.misses += 1,
        }
        hit
    }

    /// Inserts (or replaces) `key`, then evicts least-recently-used
    /// entries until both bounds hold. A replaced value's weight is
    /// released first, so re-inserting a key never double-charges it.
    pub fn insert(&self, key: K, value: V) {
        let mut state = self.state.lock().expect("cache lock");
        state.clock += 1;
        let clock = state.clock;
        state.stats.bytes += (self.weigh)(&value);
        if let Some((old, _)) = state.map.insert(key, (value, clock)) {
            state.stats.bytes -= (self.weigh)(&old);
        }
        // The new entry holds the newest stamp, so while another entry
        // remains it is never the victim.
        while state.map.len() > self.max_entries
            || (state.stats.bytes > self.max_weight && state.map.len() > 1)
        {
            let victim = state
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
                .expect("non-empty map");
            let (evicted, _) = state.map.remove(&victim).expect("victim present");
            state.stats.bytes -= (self.weigh)(&evicted);
            state.stats.evictions += 1;
        }
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let state = self.state.lock().expect("cache lock");
        CacheStats {
            entries: state.map.len(),
            ..state.stats
        }
    }
}

/// A cache debug-prints as its counters.
impl<K: Eq + Hash + Clone, V: Clone> fmt::Debug for Lru<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.stats().fmt(f)
    }
}

/// One cached job setup: the checkpoint store, the golden run it was
/// captured from, and the *decoded* snapshots — so a cache hit pays
/// neither the golden pass nor the per-campaign `decode_all`.
#[derive(Clone)]
pub struct CacheEntry {
    /// Serialized fault-free checkpoints.
    pub store: Arc<CheckpointStore>,
    /// The same checkpoints decoded once at insertion; every later
    /// session on this worker restores from these by deep clone.
    pub decoded: Arc<DecodedCheckpoints>,
    /// The golden run the store belongs to.
    pub golden: GoldenRun,
    /// Fingerprint of the machine/program pair the snapshots were
    /// decoded against ([`crate::protocol::geometry_fingerprint`]).
    /// Decoded snapshots index machine-shaped structures directly, so
    /// serving them to a job with different geometry would trade a
    /// typed decode error for an out-of-bounds panic — a lookup whose
    /// fingerprint disagrees is answered as a miss instead.
    pub geometry: u64,
    /// Per-cycle ACE evidence captured during the golden pass, when the
    /// pass ran instrumented (a pruning delegated job). Evidence is
    /// fault-model independent — the model only gates which *strata*
    /// the classifier derives from it — so one capture serves trap and
    /// replay campaigns alike, matching the model-free cache key.
    /// `None` when the golden pass ran uninstrumented; a later pruning
    /// session regenerates it and refreshes the entry.
    pub evidence: Option<Arc<PruneEvidence>>,
}

impl CacheEntry {
    /// Bytes this entry is charged against the cache's byte bound: the
    /// serialized store plus an equal estimate for the decoded
    /// snapshots it pins (a decoded checkpoint materializes the same
    /// state the blob serializes, so the serialized size is the right
    /// order of magnitude — the bound must track what the worker
    /// actually holds resident, not just the wire bytes).
    #[must_use]
    pub fn footprint(&self) -> usize {
        self.store.total_bytes() * 2
    }
}

/// The bounded LRU of checkpoint stores keyed by content hash, shared
/// by every connection of one server.
#[derive(Debug)]
pub struct StoreCache(Lru<u64, CacheEntry>);

impl StoreCache {
    /// A cache bounded by `max_entries` entries and `max_bytes` total
    /// [`CacheEntry::footprint`] bytes.
    #[must_use]
    pub fn new(max_entries: usize, max_bytes: usize) -> StoreCache {
        StoreCache(Lru::new(max_entries, max_bytes, CacheEntry::footprint))
    }

    /// A default-bounded cache behind the `Arc` the server clones per
    /// connection.
    #[must_use]
    pub fn shared() -> Arc<StoreCache> {
        Arc::new(StoreCache::new(DEFAULT_CACHE_ENTRIES, DEFAULT_CACHE_BYTES))
    }

    /// Looks `hash` up. An entry whose geometry fingerprint disagrees
    /// with `geometry` (a key collision across machine/program pairs)
    /// is a miss: its decoded snapshots must not be served to this job.
    #[must_use]
    pub fn get(&self, hash: u64, geometry: u64) -> Option<CacheEntry> {
        self.0.get(&hash, |entry| entry.geometry == geometry)
    }

    /// Inserts (or refreshes) `hash`; an entry larger than the byte
    /// bound is still admitted alone.
    pub fn insert(&self, hash: u64, entry: CacheEntry) {
        self.0.insert(hash, entry);
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.0.stats()
    }
}

/// The bounded LRU of `(context fingerprint, genome bits) → score`
/// shared by every evaluation session of one server — the fitness
/// analogue of [`StoreCache`].
#[derive(Debug)]
pub struct EvalCache(Lru<(u64, Vec<u64>), f64>);

impl EvalCache {
    /// A cache bounded to `max_entries` scores (at least one).
    #[must_use]
    pub fn with_capacity(max_entries: usize) -> EvalCache {
        EvalCache(Lru::new(max_entries, usize::MAX, |_| 1))
    }

    /// A shareable cache at the default capacity.
    #[must_use]
    pub fn shared() -> Arc<EvalCache> {
        Arc::new(EvalCache::with_capacity(DEFAULT_EVAL_CACHE_ENTRIES))
    }

    /// Looks a score up, bumping its recency on a hit.
    pub fn lookup(&self, ctx: u64, bits: &[u64]) -> Option<f64> {
        self.0.get(&(ctx, bits.to_vec()), |_| true)
    }

    /// Inserts a freshly computed score.
    pub fn insert(&self, ctx: u64, bits: Vec<u64>, score: f64) {
        self.0.insert((ctx, bits), score);
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.0.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::geometry_fingerprint;
    use avf_sim::{golden_run_checkpointed, MachineConfig};

    const GEO: u64 = 0xFEED;

    fn entry(seed: u64) -> CacheEntry {
        // Distinct stores via distinct checkpoint intervals.
        let machine = MachineConfig::baseline();
        let program = avf_workloads::testkit::idle_loop();
        let (golden, store) = golden_run_checkpointed(&machine, &program, 400, 50 + seed);
        let decoded = store.decode_all(&machine, &program).expect("own store");
        CacheEntry {
            store: Arc::new(store),
            decoded: Arc::new(decoded),
            golden,
            geometry: GEO,
            evidence: None,
        }
    }

    #[test]
    fn hits_refresh_recency_and_bounds_evict_lru() {
        let cache = StoreCache::new(2, usize::MAX);
        cache.insert(1, entry(1));
        cache.insert(2, entry(2));
        assert!(cache.get(1, GEO).is_some(), "warm entry");
        // Inserting a third must evict the least recently used: 2.
        cache.insert(3, entry(3));
        assert!(cache.get(2, GEO).is_none(), "LRU evicted");
        assert!(cache.get(1, GEO).is_some() && cache.get(3, GEO).is_some());
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn byte_bound_evicts_but_never_refuses_the_newest() {
        let e = entry(0);
        let size = e.store.total_bytes();
        assert!(size > 0);
        // Bound below one store: the newest entry is still admitted.
        let cache = StoreCache::new(8, size / 2);
        cache.insert(1, e.clone());
        assert!(cache.get(1, GEO).is_some(), "oversize entry admitted alone");
        // A second insert evicts the first to respect the bound.
        cache.insert(2, e);
        assert!(cache.get(1, GEO).is_none());
        assert!(cache.get(2, GEO).is_some());
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn reinserting_the_same_hash_does_not_double_count_bytes() {
        let cache = StoreCache::new(4, usize::MAX);
        let e = entry(0);
        let footprint = e.footprint();
        assert!(
            footprint > e.store.total_bytes(),
            "the decoded snapshots must be charged too"
        );
        cache.insert(7, e.clone());
        cache.insert(7, e);
        assert_eq!(cache.stats().bytes, footprint);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn hit_hands_back_the_decoded_snapshots_without_copying() {
        let cache = StoreCache::new(4, usize::MAX);
        let e = entry(0);
        cache.insert(9, e.clone());
        let hit = cache.get(9, GEO).expect("hit");
        assert!(
            Arc::ptr_eq(&hit.decoded, &e.decoded),
            "a hit shares the decoded snapshots, it does not re-decode"
        );
    }

    #[test]
    fn geometry_mismatch_is_a_miss_not_a_wrong_answer() {
        let cache = StoreCache::new(4, usize::MAX);
        cache.insert(5, entry(0));
        // Same cache key, different machine/program fingerprint: the
        // decoded snapshots must not be served.
        assert!(cache.get(5, GEO ^ 1).is_none());
        assert_eq!(cache.stats().misses, 1);
        assert!(cache.get(5, GEO).is_some(), "entry itself is intact");
    }

    #[test]
    fn fingerprint_tracks_machine_and_program() {
        let base = MachineConfig::baseline();
        let a = MachineConfig::config_a();
        let p1 = avf_workloads::testkit::idle_loop();
        let p2 = avf_workloads::testkit::register_chain();
        assert_eq!(
            geometry_fingerprint(&base, &p1),
            geometry_fingerprint(&base, &p1)
        );
        assert_ne!(
            geometry_fingerprint(&base, &p1),
            geometry_fingerprint(&a, &p1)
        );
        assert_ne!(
            geometry_fingerprint(&base, &p1),
            geometry_fingerprint(&base, &p2)
        );
    }

    #[test]
    fn zero_capacity_clamps_to_one_entry() {
        let cache = EvalCache::with_capacity(0);
        cache.insert(1, vec![1], 1.0);
        assert_eq!(cache.lookup(1, &[1]), Some(1.0), "the newest entry is held");
        cache.insert(1, vec![2], 2.0);
        assert_eq!(cache.lookup(1, &[1]), None);
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.stats().evictions, 1);
    }
}
