//! Stable plan-identity fingerprints and the sharded memo cache.
//!
//! Two subsystems need to agree on the question "is this the same
//! planning instance?": the order-search refine memo in
//! [`crate::system`] (kind-identical virtual workers must share one
//! standalone simulation) and the replan cache (`hetpipe-plansvc`),
//! whose request keys are built from the same identity. This module is
//! that shared vocabulary:
//!
//! - [`graph_fingerprint`] / [`cluster_fingerprint`] — FNV-1a digests
//!   of every cost-relevant field. Deliberately **not** `Hash`-based:
//!   no `RandomState` is involved anywhere, so the same inputs produce
//!   the same `u64` in every process, today and tomorrow — a plan
//!   cache keyed by these fingerprints stays valid across restarts
//!   (the stability tests below pin golden values). Their [`Fnv`]
//!   accumulator is public, so trace digests elsewhere hash the same
//!   way.
//! - [`RefineKey`] — everything that determines a refine candidate's
//!   simulated standalone rate, promoted out of `system.rs` so the
//!   memo key is a public, documented contract.
//! - [`ShardedCache`] — a `Mutex`-sharded concurrent map with hit/miss
//!   accounting and true-LRU eviction at capacity, backing the refine
//!   memo. Unlike the thread-local memo it replaces, entries are shared
//!   by *all* threads: scoped worker threads and repeated builds on
//!   different threads hit the same entries.

use crate::pserver::Placement;
use crate::system::SystemConfig;
use hetpipe_cluster::{Cluster, DeviceId};
use hetpipe_model::ModelGraph;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf29ce484222325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x100000001b3;

/// A tiny explicit FNV-1a accumulator — process-independent by
/// construction (no `RandomState`, no pointer identity). The digest is
/// the `.0` field; [`Fnv::default`] starts at the offset basis.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    /// Mixes a whole word in one FNV-1a step (the fingerprints'
    /// field-at-a-time form).
    pub fn mix(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    /// Mixes `bytes` one FNV-1a step per byte (textbook FNV-1a).
    pub fn mix_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(b as u64);
        }
    }
}

/// FNV-1a over every layer's cost-relevant fields: two models that
/// hash equal simulate equal (up to astronomically unlikely
/// collisions), two models differing in any per-layer profile hash
/// apart. Stable across processes — safe to persist and to use as a
/// service request key.
pub fn graph_fingerprint(graph: &ModelGraph) -> u64 {
    let mut h = Fnv::default();
    h.mix(graph.batch_size as u64);
    for l in graph.layers() {
        h.mix(l.param_bytes);
        h.mix(l.stored_bytes);
        h.mix(l.activation_bytes);
        h.mix(l.membound_bytes);
        h.mix(l.kernels as u64);
        h.mix(l.fwd_flops.to_bits());
        h.mix(l.bwd_flops.to_bits());
    }
    h.0
}

/// FNV-1a over the cluster's cost-relevant shape: node layout
/// (device → node mapping decides PCIe vs InfiniBand and shard
/// locality) and every device's nominal GPU spec fields. Observed
/// derates are *not* part of the cluster identity — they are
/// per-request state (a plan cache keys them separately), and the
/// cluster fingerprint must survive a straggler coming and going.
pub fn cluster_fingerprint(cluster: &Cluster) -> u64 {
    let mut h = Fnv::default();
    h.mix(cluster.node_count() as u64);
    h.mix(cluster.device_count() as u64);
    for d in cluster.devices() {
        let spec = cluster.spec_of(d);
        h.mix(cluster.node_of(d).0 as u64);
        h.mix_bytes(spec.name.as_bytes());
        h.mix(spec.cuda_cores as u64);
        h.mix(spec.boost_clock_mhz as u64);
        h.mix(spec.memory_bytes);
        h.mix(spec.memory_bw_bytes_per_sec.to_bits());
        h.mix(spec.effective_throughput.to_bits());
    }
    h.0
}

/// Everything that determines a refine candidate's simulated
/// standalone rate: the kind-order (GPU kinds of the expanded stage
/// list), the node co-location pattern (canonicalized to
/// first-occurrence ranks — it decides PCIe-vs-InfiniBand links and
/// shard-transfer locality), the candidate `Nm`, the placement /
/// schedule / recompute / staleness / sync-transfer configuration,
/// and the model fingerprint. Two candidates with equal keys simulate
/// identically, so the refine pass memoizes on this key — on big
/// clusters most virtual workers are kind-identical (e.g. every ED
/// group), and repeated `build` calls re-rank the same leaders.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RefineKey {
    kinds: Vec<&'static str>,
    node_pattern: Vec<usize>,
    /// Cluster shape: the round-robin default shard placement spreads
    /// over `node_count()` nodes, so the same candidate on a
    /// different-shaped cluster is a different simulation.
    cluster_shape: (usize, usize),
    nm: usize,
    placement: Placement,
    schedule: hetpipe_schedule::Schedule,
    recompute: hetpipe_schedule::RecomputePolicy,
    staleness_bound: usize,
    sync_transfers: bool,
    /// Per-layer model fingerprint ([`graph_fingerprint`]) plus the
    /// layer count — totals alone would let two models with equal
    /// sums collide.
    graph: (usize, u64),
}

impl RefineKey {
    /// Builds the memo key of one refine candidate.
    pub fn new(
        cluster: &Cluster,
        graph: &ModelGraph,
        devices: &[DeviceId],
        nm: usize,
        config: &SystemConfig,
    ) -> RefineKey {
        // Node layout. Under ED-style *local* shard placement, only
        // the co-location pattern matters (it decides the links and
        // every shard sits on its stage's own node), so nodes are
        // canonicalized to first-appearance ranks and kind-identical
        // VWs on different nodes share a memo entry. Under the
        // round-robin *default* placement the absolute nodes decide
        // which shard transfers stay on-node, so they key verbatim.
        let node_pattern = match config.placement {
            Placement::Local => {
                let mut seen: Vec<hetpipe_cluster::NodeId> = Vec::new();
                devices
                    .iter()
                    .map(|&d| {
                        let node = cluster.node_of(d);
                        match seen.iter().position(|&n| n == node) {
                            Some(rank) => rank,
                            None => {
                                seen.push(node);
                                seen.len() - 1
                            }
                        }
                    })
                    .collect()
            }
            Placement::Default => devices.iter().map(|&d| cluster.node_of(d).0).collect(),
        };
        RefineKey {
            kinds: devices.iter().map(|&d| cluster.spec_of(d).name).collect(),
            node_pattern,
            cluster_shape: (cluster.node_count(), cluster.device_count()),
            nm,
            placement: config.placement,
            schedule: config.schedule,
            recompute: config.recompute,
            staleness_bound: config.staleness_bound,
            sync_transfers: config.sync_transfers,
            graph: (graph.len(), graph_fingerprint(graph)),
        }
    }
}

/// Number of shards (a power of two; the shard index is the key
/// hash's low bits).
const SHARD_COUNT: usize = 16;

/// One cached value with its last-touched recency stamp (drawn from
/// the cache-wide monotone clock).
#[derive(Debug)]
struct Stamped<V> {
    value: V,
    touched: u64,
}

/// A concurrent map sharded across `SHARD_COUNT` `Mutex<HashMap>`
/// shards, with hit/miss accounting and a bounded capacity enforced
/// by **true LRU eviction**: every `get` and `insert` refreshes the
/// entry's recency stamp, and an insert into a full shard evicts
/// exactly the shard's least-recently-touched entry (replacing the
/// earlier whole-shard dump, which threw away up to `cap` hot entries
/// to admit one).
///
/// Shard selection uses `DefaultHasher::new()` (fixed-key SipHash), so
/// it is deterministic within and across processes; the `HashMap`s
/// inside each shard still use `RandomState`, which is fine because a
/// shard map is never serialized or compared across processes.
#[derive(Debug)]
pub struct ShardedCache<K, V> {
    shards: Vec<Mutex<HashMap<K, Stamped<V>>>>,
    cap_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Monotone recency clock; stamps are unique, so LRU eviction is
    /// total-ordered and deterministic for a given access history.
    clock: AtomicU64,
}

impl<K: Hash + Eq, V: Clone> ShardedCache<K, V> {
    /// Creates a cache holding at most roughly `capacity` entries
    /// (split evenly across shards).
    pub fn new(capacity: usize) -> Self {
        ShardedCache {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            cap_per_shard: (capacity / SHARD_COUNT).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            clock: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<HashMap<K, Stamped<V>>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) & (SHARD_COUNT - 1)]
    }

    fn lock(
        shard: &Mutex<HashMap<K, Stamped<V>>>,
    ) -> std::sync::MutexGuard<'_, HashMap<K, Stamped<V>>> {
        // A panicking holder must not poison the cache for everyone
        // else; the map itself is never left mid-mutation by the
        // operations below.
        shard.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Evicts the least-recently-touched entry of `map`. Stamps are
    /// unique (one monotone clock), so the victim is unambiguous.
    /// Removal goes through `retain` rather than a key clone, keeping
    /// `K: Clone` off the public bounds.
    fn evict_lru(map: &mut HashMap<K, Stamped<V>>) {
        if let Some(oldest) = map.values().map(|e| e.touched).min() {
            map.retain(|_, e| e.touched != oldest);
        }
    }

    /// Looks up `key`, counting a hit or a miss. A hit refreshes the
    /// entry's LRU recency.
    pub fn get(&self, key: &K) -> Option<V> {
        let found = {
            let mut map = Self::lock(self.shard(key));
            map.get_mut(key).map(|e| {
                e.touched = self.clock.fetch_add(1, Ordering::Relaxed);
                e.value.clone()
            })
        };
        match found {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts `key → value` as the most-recently-used entry, evicting
    /// the shard's least-recently-touched entry first when the shard
    /// is at capacity (replacing an existing key never evicts).
    pub fn insert(&self, key: K, value: V) {
        let touched = self.tick();
        let mut map = Self::lock(self.shard(&key));
        if map.len() >= self.cap_per_shard && !map.contains_key(&key) {
            Self::evict_lru(&mut map);
        }
        map.insert(key, Stamped { value, touched });
    }

    /// Total entries across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| Self::lock(s).len()).sum()
    }

    /// True when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        for s in &self.shards {
            Self::lock(s).clear();
        }
    }

    /// Lifetime lookup hits.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime lookup misses.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetpipe_cluster::GpuKind;
    use hetpipe_model::{Layer, LayerKind};

    fn tiny_graph(tweak: u64) -> ModelGraph {
        let layer = |i: u64| Layer {
            name: format!("l{i}"),
            kind: LayerKind::Conv2d,
            param_bytes: 100 + i,
            activation_bytes: 200 + i,
            stored_bytes: 300 + i + tweak,
            fwd_flops: 1e6 + i as f64,
            bwd_flops: 2e6 + i as f64,
            membound_bytes: 50 + i,
            kernels: 3,
        };
        ModelGraph::new("tiny", 8, 1024, (0..4).map(layer).collect())
    }

    #[test]
    fn graph_fingerprint_is_stable_and_sensitive() {
        // Same inputs ⇒ same key, in this process and any other: the
        // digest is pure FNV-1a over explicit fields (no RandomState),
        // pinned here by a golden value. If this assertion ever fires
        // without an intentional fingerprint-algorithm change, cached
        // plans keyed by the old value would silently mismatch — that
        // is exactly what the pin is for.
        let a = graph_fingerprint(&tiny_graph(0));
        let b = graph_fingerprint(&tiny_graph(0));
        assert_eq!(a, b, "identical inputs must fingerprint identically");
        assert_eq!(a, 15113568239010406371, "golden fingerprint moved");
        // Any cost-relevant per-layer change must move the digest.
        assert_ne!(a, graph_fingerprint(&tiny_graph(1)));
        // Batch size is part of the identity.
        let other_batch = ModelGraph::new("tiny", 16, 1024, tiny_graph(0).layers().to_vec());
        assert_ne!(a, graph_fingerprint(&other_batch));
        let zoo = hetpipe_model::vgg19(32);
        assert_eq!(graph_fingerprint(&zoo), graph_fingerprint(&zoo.clone()));
        assert_ne!(
            graph_fingerprint(&zoo),
            graph_fingerprint(&hetpipe_model::resnet152(32))
        );
    }

    #[test]
    fn cluster_fingerprint_is_stable_and_sensitive() {
        let paper = Cluster::paper_testbed();
        assert_eq!(
            cluster_fingerprint(&paper),
            cluster_fingerprint(&Cluster::paper_testbed()),
            "identical clusters must fingerprint identically"
        );
        let whimpy = Cluster::testbed_subset(&[GpuKind::Rtx2060; 4]);
        assert_ne!(cluster_fingerprint(&paper), cluster_fingerprint(&whimpy));
        // Node layout matters even with identical device multisets:
        // 1×4 RTX 2060 vs 4×1 RTX 2060 differ in every link.
        let one_node = Cluster::testbed_subset(&[GpuKind::Rtx2060]);
        assert_ne!(cluster_fingerprint(&whimpy), cluster_fingerprint(&one_node));
    }

    #[test]
    fn sharded_cache_basic_ops_and_counters() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new(1024);
        assert_eq!(cache.get(&1), None);
        cache.insert(1, 10);
        cache.insert(2, 20);
        assert_eq!(cache.get(&1), Some(10));
        assert_eq!(cache.get(&2), Some(20));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn sharded_cache_is_shared_across_threads() {
        // The property the thread-local refine memo lacked: an entry
        // inserted by one thread is a hit on every other.
        let cache: ShardedCache<u64, u64> = ShardedCache::new(1024);
        std::thread::scope(|s| {
            s.spawn(|| {
                for k in 0..64u64 {
                    cache.insert(k, k * 2);
                }
            })
            .join()
            .unwrap();
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        for k in 0..64u64 {
                            assert_eq!(cache.get(&k), Some(k * 2));
                        }
                    })
                })
                .collect();
            for r in readers {
                r.join().unwrap();
            }
        });
        assert!(cache.hits() >= 4 * 64, "cross-thread lookups must hit");
    }

    #[test]
    fn sharded_cache_caps_each_shard() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new(SHARD_COUNT);
        // cap_per_shard == 1: the second distinct key landing in a
        // shard evicts the first.
        for k in 0..1024u64 {
            cache.insert(k, k);
        }
        assert!(cache.len() <= SHARD_COUNT, "cap must bound the cache");
    }

    /// The shard a key lands in, computed with the same fixed-key
    /// SipHash the cache uses — lets tests steer keys into one shard.
    fn shard_of(k: u64) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        k.hash(&mut h);
        (h.finish() as usize) & (SHARD_COUNT - 1)
    }

    /// `n` distinct keys that all hash to one shard.
    fn same_shard_keys(n: usize) -> Vec<u64> {
        (0u64..)
            .filter(|&k| shard_of(k) == shard_of(0))
            .take(n)
            .collect()
    }

    #[test]
    fn eviction_is_true_lru_not_shard_dump() {
        // cap_per_shard == 2. Pin the eviction *order*: the entry that
        // goes is exactly the least-recently-touched one, and the rest
        // of the shard survives (the old policy dumped the whole
        // shard).
        let cache: ShardedCache<u64, u64> = ShardedCache::new(2 * SHARD_COUNT);
        let keys = same_shard_keys(4);
        let (a, b, c, d) = (keys[0], keys[1], keys[2], keys[3]);
        cache.insert(a, 1);
        cache.insert(b, 2);
        // Touch `a`: now `b` is the LRU entry.
        assert_eq!(cache.get(&a), Some(1));
        cache.insert(c, 3);
        assert_eq!(cache.get(&b), None, "the LRU entry is the victim");
        assert_eq!(cache.get(&a), Some(1), "the refreshed entry survives");
        assert_eq!(cache.get(&c), Some(3));
        // The get(&c) above refreshed `c`... and get(&a) before it
        // refreshed `a`, so now `a` is older. A fourth key evicts `a`.
        cache.insert(d, 4);
        assert_eq!(cache.get(&a), None, "eviction follows touch order");
        assert_eq!(cache.get(&c), Some(3));
        assert_eq!(cache.get(&d), Some(4));
    }

    #[test]
    fn replacing_a_resident_key_never_evicts() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new(2 * SHARD_COUNT);
        let keys = same_shard_keys(2);
        cache.insert(keys[0], 1);
        cache.insert(keys[1], 2);
        // The shard is full; overwriting a resident key must not push
        // anything out.
        cache.insert(keys[0], 10);
        assert_eq!(cache.get(&keys[0]), Some(10));
        assert_eq!(cache.get(&keys[1]), Some(2));
    }

    #[test]
    fn refine_key_equality_follows_identity() {
        let cluster = Cluster::paper_testbed();
        let graph = hetpipe_model::vgg19(32);
        let config = SystemConfig::default();
        let devices: Vec<DeviceId> = vec![DeviceId(0), DeviceId(4), DeviceId(8), DeviceId(12)];
        let a = RefineKey::new(&cluster, &graph, &devices, 4, &config);
        let b = RefineKey::new(&cluster, &graph, &devices, 4, &config);
        assert_eq!(a, b);
        let c = RefineKey::new(&cluster, &graph, &devices, 5, &config);
        assert_ne!(a, c, "Nm is part of the identity");
        let mut other = config.clone();
        other.staleness_bound = 2;
        let d = RefineKey::new(&cluster, &graph, &devices, 4, &other);
        assert_ne!(a, d, "staleness bound is part of the identity");
    }
}
