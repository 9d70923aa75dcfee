//! The plan cache and its warm-start neighbor index.

use hetpipe_cluster::DeviceId;
use hetpipe_partition::PartitionPlan;
use hetpipe_schedule::{RecomputePolicy, Schedule};
use std::collections::HashMap;

/// Identity of one planning instance, by value: stable fingerprints
/// for the model and cluster, the expanded stage-device list in
/// pipeline order, `Nm`, schedule, recompute policy, and the observed
/// per-stage derate vector (bit-exact, already normalized to ≥ 1.0).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// [`hetpipe_core::plankey::graph_fingerprint`] of the model.
    pub model_fp: u64,
    /// [`hetpipe_core::plankey::cluster_fingerprint`] of the cluster.
    pub cluster_fp: u64,
    /// Expanded virtual-stage device list in pipeline order.
    pub devices: Vec<DeviceId>,
    /// Concurrent minibatches.
    pub nm: usize,
    /// Pipeline schedule.
    pub schedule: Schedule,
    /// Recomputation policy.
    pub recompute: RecomputePolicy,
    /// `f64::to_bits` of each stage's normalized derate (length =
    /// `devices.len()`; all-nominal is a vector of `1.0f64.to_bits()`).
    pub derate_bits: Vec<u64>,
}

impl PlanKey {
    /// The key's warm-start family: every instance sharing model,
    /// cluster, devices, schedule, and recompute — any `Nm` or derate
    /// vector. Family members share the stage count, so any member's
    /// plan is a shape-compatible incumbent for any other.
    fn family(&self) -> FamilyKey {
        FamilyKey {
            model_fp: self.model_fp,
            cluster_fp: self.cluster_fp,
            devices: self.devices.clone(),
            schedule: self.schedule,
            recompute: self.recompute,
        }
    }
}

/// Neighbor-index key: [`PlanKey`] minus `nm` and `derate_bits`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct FamilyKey {
    model_fp: u64,
    cluster_fp: u64,
    devices: Vec<DeviceId>,
    schedule: Schedule,
    recompute: RecomputePolicy,
}

/// One cached plan with its last-touched recency stamp.
#[derive(Debug)]
struct Entry {
    plan: PartitionPlan,
    touched: u64,
}

/// Neighbors remembered per family, most recent first.
const FAMILY_NEIGHBOR_CAP: usize = 8;

/// The plan cache: a `PlanKey → PartitionPlan` map bounded by
/// least-recently-used eviction, plus the family neighbor index used
/// to seed warm starts. Every key in the neighbor index is cached.
#[derive(Debug)]
pub(crate) struct PlanCache {
    capacity: usize,
    entries: HashMap<PlanKey, Entry>,
    families: HashMap<FamilyKey, Vec<PlanKey>>,
    /// Recency clock; stamps are unique, so the eviction victim is
    /// unambiguous.
    clock: u64,
    hits: u64,
    misses: u64,
    publishes: u64,
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` plans.
    pub(crate) fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity,
            entries: HashMap::new(),
            families: HashMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
            publishes: 0,
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Looks up `key`, counting a hit or a miss. A hit refreshes the
    /// entry's recency.
    pub(crate) fn get(&mut self, key: &PlanKey) -> Option<PartitionPlan> {
        let now = self.tick();
        match self.entries.get_mut(key) {
            Some(e) => {
                e.touched = now;
                self.hits += 1;
                Some(e.plan.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores a replanned `key` as the most recently used entry and
    /// the newest member of its family, evicting the least recently
    /// used plan first when a new key finds the cache full.
    pub(crate) fn publish(&mut self, key: &PlanKey, plan: PartitionPlan) {
        self.publishes += 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(key) {
            self.evict_lru();
        }
        let touched = self.tick();
        self.entries.insert(key.clone(), Entry { plan, touched });
        let list = self.families.entry(key.family()).or_default();
        list.retain(|k| k != key);
        list.insert(0, key.clone());
        list.truncate(FAMILY_NEIGHBOR_CAP);
    }

    /// Drops the least recently used plan, and its neighbor link.
    fn evict_lru(&mut self) {
        let Some(oldest) = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.touched)
            .map(|(k, _)| k.clone())
        else {
            return;
        };
        self.entries.remove(&oldest);
        let family = oldest.family();
        if let Some(list) = self.families.get_mut(&family) {
            list.retain(|k| *k != oldest);
            if list.is_empty() {
                self.families.remove(&family);
            }
        }
    }

    /// The plan of the most recently stored family neighbor of `key`
    /// (same model, cluster, devices, schedule, recompute; different
    /// `Nm` or derates) — the warm-start incumbent for a miss on `key`.
    /// Looking it up counts as a hit.
    pub(crate) fn neighbor(&mut self, key: &PlanKey) -> Option<PartitionPlan> {
        let sibling = self
            .families
            .get(&key.family())?
            .iter()
            .find(|k| *k != key)?
            .clone();
        self.get(&sibling)
    }

    /// Every cached plan with its key, in no particular order.
    pub(crate) fn plans(&self) -> Vec<(PlanKey, PartitionPlan)> {
        self.entries
            .iter()
            .map(|(k, e)| (k.clone(), e.plan.clone()))
            .collect()
    }

    /// Lifetime counters: `(hits, misses, publishes)`.
    pub(crate) fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.publishes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(nm: usize, derate: f64) -> PlanKey {
        PlanKey {
            model_fp: 0xabcd,
            cluster_fp: 0x1234,
            devices: vec![DeviceId(0), DeviceId(1)],
            nm,
            schedule: Schedule::HetPipeWave,
            recompute: RecomputePolicy::None,
            derate_bits: vec![derate.to_bits(); 2],
        }
    }

    fn plan(bottleneck: f64) -> PartitionPlan {
        PartitionPlan {
            ranges: vec![0..1, 1..2],
            stage_secs: vec![bottleneck, bottleneck / 2.0],
            bottleneck_secs: bottleneck,
        }
    }

    #[test]
    fn family_index_is_cap8_most_recent_first() {
        // Publish 10 family members (distinct Nm); the neighbor index
        // must hold exactly FAMILY_NEIGHBOR_CAP of them, newest first —
        // the two oldest fall off the end.
        let mut cache = PlanCache::new(1024);
        for nm in 1..=10usize {
            cache.publish(&key(nm, 1.0), plan(nm as f64));
        }
        let list = &cache.families[&key(1, 1.0).family()];
        assert_eq!(list.len(), FAMILY_NEIGHBOR_CAP);
        let order: Vec<usize> = list.iter().map(|k| k.nm).collect();
        assert_eq!(order, vec![10, 9, 8, 7, 6, 5, 4, 3], "most recent first");
        // Re-publishing an old member moves it to the front without
        // growing the list.
        cache.publish(&key(5, 1.0), plan(5.0));
        let list = &cache.families[&key(1, 1.0).family()];
        let order: Vec<usize> = list.iter().map(|k| k.nm).collect();
        assert_eq!(order, vec![5, 10, 9, 8, 7, 6, 4, 3]);
        // And neighbor() serves the head of the list (skipping self).
        let neighbor_cost =
            |cache: &mut PlanCache, nm| cache.neighbor(&key(nm, 1.0)).unwrap().bottleneck_secs;
        assert_eq!(neighbor_cost(&mut cache, 4), 5.0);
        assert_eq!(neighbor_cost(&mut cache, 5), 10.0);
    }

    #[test]
    fn plan_entries_evict_in_lru_order() {
        // Under insert pressure, a plan that is read (touched) after
        // every insert is always the freshest entry, so LRU eviction
        // must never pick it, while cold entries do get evicted.
        let mut cache = PlanCache::new(32);
        cache.publish(&key(1, 1.0), plan(1.0));
        for nm in 2..=64usize {
            cache.publish(&key(nm, 1.0), plan(nm as f64));
            assert!(
                cache.get(&key(1, 1.0)).is_some(),
                "the hot entry must survive eviction (lost after nm={nm})"
            );
        }
        assert!(cache.entries.len() <= 32, "capacity still bounds the cache");
        assert!(
            (2..=64).any(|nm| !cache.entries.contains_key(&key(nm, 1.0))),
            "cold entries are the ones evicted"
        );
        // Evicted keys leave the neighbor index too.
        let family = &cache.families[&key(1, 1.0).family()];
        assert!(family.iter().all(|k| cache.entries.contains_key(k)));
    }

    #[test]
    fn neighbor_finds_family_members_most_recent_first() {
        let mut cache = PlanCache::new(1024);
        assert!(cache.neighbor(&key(4, 1.5)).is_none());
        cache.publish(&key(4, 1.0), plan(0.1));
        cache.publish(&key(3, 1.0), plan(0.2));
        // Miss on a derated instance: the most recent family member
        // (nm=3) seeds the warm start.
        let n = cache.neighbor(&key(4, 1.5)).unwrap();
        assert_eq!(n.bottleneck_secs, 0.2);
        // A key is not its own neighbor.
        let n = cache.neighbor(&key(3, 1.0)).unwrap();
        assert_eq!(n.bottleneck_secs, 0.1);
        // Different devices = different family.
        let mut other = key(4, 1.0);
        other.devices = vec![DeviceId(2), DeviceId(3)];
        assert!(cache.neighbor(&other).is_none());
    }
}
