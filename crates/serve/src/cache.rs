//! The shape-bucketed kernel cache.
//!
//! Tuning is the expensive path (five-plus hours per device in the
//! paper); serving must not pay it per request. This LRU maps
//! `(device, precision, shape bucket)` to the kernel parameters serving
//! that bucket. A miss resolves through the server's miss chain: the
//! tuning database, the predictor, `tune_misses`, the kernel repo, the
//! paper's Table II winner, then the small test kernel.

use crate::request::ShapeBucket;
use clgemm::params::KernelParams;
use clgemm_blas::scalar::Precision;

/// Cache key: which kernel serves which bucket where.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Device code name (`DeviceSpec::code_name`).
    pub device: String,
    pub precision: Precision,
    pub bucket: ShapeBucket,
}

/// Where a cached parameter set came from — the serving layer's three
/// resolution paths (see `GemmServer::resolve_miss`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provenance {
    /// The analytical predictor (`clgemm::predict`) — zero search.
    Predicted,
    /// A tuner search: the background refiner, or a synchronous
    /// `tune_misses` run.
    Refined,
    /// Persisted knowledge: the on-disk tuning database, the kernel
    /// repo, or the paper's Table II winners.
    Persisted,
}

impl Provenance {
    /// All provenances, in [`Provenance::index`] order.
    pub const ALL: [Provenance; 3] = [
        Provenance::Predicted,
        Provenance::Refined,
        Provenance::Persisted,
    ];

    /// Stable label (for metrics and display).
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            Provenance::Predicted => "predicted",
            Provenance::Refined => "refined",
            Provenance::Persisted => "persisted",
        }
    }

    /// Position in [`Self::ALL`] (for fixed-size tally arrays).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Provenance::Predicted => 0,
            Provenance::Refined => 1,
            Provenance::Persisted => 2,
        }
    }
}

/// A small LRU over tuned kernel parameters.
///
/// Front of the list is most-recently used; eviction pops the back.
#[derive(Debug)]
pub struct KernelCache {
    capacity: usize,
    entries: Vec<(CacheKey, KernelParams, Provenance)>,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// Hits per [`Provenance`], indexed by [`Provenance::index`].
    hits_by_provenance: [u64; 3],
}

impl KernelCache {
    /// A cache holding at most `capacity` kernels.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> KernelCache {
        assert!(capacity > 0, "cache capacity must be positive");
        KernelCache {
            capacity,
            entries: Vec::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
            hits_by_provenance: [0; 3],
        }
    }

    /// Look up and touch: a hit moves the entry to the MRU position and
    /// reports where the winning parameters originally came from.
    pub fn get(&mut self, key: &CacheKey) -> Option<(KernelParams, Provenance)> {
        match self.entries.iter().position(|(k, _, _)| k == key) {
            Some(pos) => {
                self.hits += 1;
                let entry = self.entries.remove(pos);
                let (params, provenance) = (entry.1, entry.2);
                self.hits_by_provenance[provenance.index()] += 1;
                self.entries.insert(0, entry);
                Some((params, provenance))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Look without touching LRU order or hit/miss counters (used by
    /// the scheduler when costing a batch on devices it may not pick).
    #[must_use]
    pub fn peek(&self, key: &CacheKey) -> Option<&KernelParams> {
        self.entries
            .iter()
            .find(|(k, _, _)| k == key)
            .map(|(_, p, _)| p)
    }

    /// Insert at MRU, evicting the LRU entry when full. Replaces any
    /// existing entry for the key (and its provenance — the background
    /// refiner uses exactly this to upgrade `Predicted` to `Refined`).
    pub fn insert(&mut self, key: CacheKey, params: KernelParams, provenance: Provenance) {
        if let Some(pos) = self.entries.iter().position(|(k, _, _)| *k == key) {
            self.entries.remove(pos);
        } else if self.entries.len() >= self.capacity {
            self.entries.pop();
            self.evictions += 1;
        }
        self.entries.insert(0, (key, params, provenance));
    }

    /// Number of cached kernels.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(hits, misses, evictions)` so far.
    #[must_use]
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// Hits split by entry provenance, indexed by [`Provenance::index`].
    #[must_use]
    pub fn provenance_hits(&self) -> [u64; 3] {
        self.hits_by_provenance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clgemm::params::small_test_params;

    fn key(device: &str, m: usize) -> CacheKey {
        CacheKey {
            device: device.to_string(),
            precision: Precision::F64,
            bucket: ShapeBucket::of(m, m, m),
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let p = small_test_params(Precision::F64);
        let mut cache = KernelCache::new(2);
        cache.insert(key("Tahiti", 64), p, Provenance::Persisted);
        cache.insert(key("Tahiti", 128), p, Provenance::Persisted);
        // Touch 64 so 128 becomes LRU.
        assert!(cache.get(&key("Tahiti", 64)).is_some());
        cache.insert(key("Tahiti", 256), p, Provenance::Persisted);
        assert_eq!(cache.len(), 2);
        assert!(
            cache.peek(&key("Tahiti", 128)).is_none(),
            "128 was LRU and must go"
        );
        assert!(cache.peek(&key("Tahiti", 64)).is_some());
        assert!(cache.peek(&key("Tahiti", 256)).is_some());
        let (hits, misses, evictions) = cache.counters();
        assert_eq!((hits, misses, evictions), (1, 0, 1));
    }

    #[test]
    fn devices_and_precisions_do_not_collide() {
        let p = small_test_params(Precision::F64);
        let mut cache = KernelCache::new(8);
        cache.insert(key("Tahiti", 64), p, Provenance::Persisted);
        assert!(cache.get(&key("Cayman", 64)).is_none());
        let mut sgemm_key = key("Tahiti", 64);
        sgemm_key.precision = Precision::F32;
        assert!(cache.get(&sgemm_key).is_none());
        assert_eq!(cache.counters().1, 2, "both lookups were misses");
    }

    #[test]
    fn peek_does_not_perturb_order_or_counters() {
        let p = small_test_params(Precision::F64);
        let mut cache = KernelCache::new(2);
        cache.insert(key("Tahiti", 64), p, Provenance::Persisted);
        cache.insert(key("Tahiti", 128), p, Provenance::Persisted);
        assert!(cache.peek(&key("Tahiti", 64)).is_some());
        // 64 is still LRU despite the peek; inserting a third evicts it.
        cache.insert(key("Tahiti", 256), p, Provenance::Persisted);
        assert!(cache.peek(&key("Tahiti", 64)).is_none());
        assert_eq!(cache.counters(), (0, 0, 1));
    }

    #[test]
    fn reinsert_replaces_without_eviction() {
        let d = small_test_params(Precision::F64);
        let mut cache = KernelCache::new(2);
        cache.insert(key("Tahiti", 64), d, Provenance::Predicted);
        let mut altered = d;
        altered.kwi += 1;
        cache.insert(key("Tahiti", 64), altered, Provenance::Refined);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.peek(&key("Tahiti", 64)).unwrap().kwi, d.kwi + 1);
        assert_eq!(cache.counters().2, 0);
        // The refiner's upgrade is visible on the next hit.
        let (_, prov) = cache.get(&key("Tahiti", 64)).unwrap();
        assert_eq!(prov, Provenance::Refined);
    }

    #[test]
    fn hits_are_tallied_per_provenance() {
        let p = small_test_params(Precision::F64);
        let mut cache = KernelCache::new(4);
        cache.insert(key("Tahiti", 64), p, Provenance::Predicted);
        cache.insert(key("Tahiti", 128), p, Provenance::Persisted);
        cache.get(&key("Tahiti", 64));
        cache.get(&key("Tahiti", 64));
        cache.get(&key("Tahiti", 128));
        cache.get(&key("Tahiti", 256)); // miss
        let by = cache.provenance_hits();
        assert_eq!(by[Provenance::Predicted.index()], 2);
        assert_eq!(by[Provenance::Refined.index()], 0);
        assert_eq!(by[Provenance::Persisted.index()], 1);
        assert_eq!(cache.counters(), (3, 1, 0));
    }
}
