//! Bounded, sharded-lock LRU cache shared across Cobra subsystems.
//!
//! One policy, three users: the kernel's per-(bat, version) tail-sketch
//! cache, the conceptual→MIL plan cache, and the versioned query result
//! cache. Keys hash to a shard; each shard is an independent mutex-guarded
//! map, so concurrent lookups on different shards never contend. Recency is
//! tracked with a per-shard logical clock: every hit re-stamps the entry,
//! and an insert into a full shard evicts the entry with the oldest stamp
//! (exact LRU within the shard). Capacities here are small (hundreds of
//! entries), so the O(shard-len) eviction scan is cheaper than maintaining
//! an intrusive list under a lock.
//!
//! The cache stores `V: Clone` values directly; callers that want cheap
//! hits wrap payloads in `Arc`. All accounting (hit/miss/eviction counters,
//! entry and byte gauges) is left to the caller: `get` returns `Option<V>`
//! and `insert` returns what the insert [`Displaced`] — the value it
//! replaced or the entry it evicted — which is exactly the information the
//! metrics layer needs without coupling this crate to `cobra-obs`.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

use cobra_faults::Recover;

/// Default shard count: enough to keep 8 worker threads from serializing,
/// small enough that per-shard capacity stays meaningful at cap 128.
const DEFAULT_SHARDS: usize = 8;

struct Entry<V> {
    value: V,
    touched: u64,
}

struct Shard<K, V> {
    map: HashMap<K, Entry<V>>,
    clock: u64,
}

impl<K: Hash + Eq + Clone, V: Clone> Shard<K, V> {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Evict the least-recently-touched entry, returning it.
    fn evict_oldest(&mut self) -> Option<(K, V)> {
        let oldest = self
            .map
            .iter()
            .min_by_key(|(_, e)| e.touched)
            .map(|(k, _)| k.clone())?;
        let entry = self.map.remove(&oldest)?;
        Some((oldest, entry.value))
    }
}

/// What an [`Lru::insert`] took out of the cache, decided under the
/// shard's lock: a caller that keeps gauges adjusts them by exactly this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Displaced<K, V> {
    /// The key was resident: its previous value, now replaced.
    Replaced(V),
    /// The key was new and its shard full: the least recently used
    /// entry, evicted to make room.
    Evicted(K, V),
}

/// A bounded map with least-recently-used eviction and sharded locking.
///
/// `capacity` is the total bound across shards; each shard holds at most
/// `ceil(capacity / shards)` entries so the whole cache never exceeds
/// `capacity` by more than rounding.
pub struct Lru<K, V> {
    shards: Box<[Mutex<Shard<K, V>>]>,
    per_shard_cap: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> Lru<K, V> {
    /// A cache bounded at `capacity` entries with the default shard count.
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, DEFAULT_SHARDS)
    }

    /// A cache with an explicit shard count. `shards = 1` gives a single
    /// global LRU order — useful for deterministic eviction tests.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1).min(capacity.max(1));
        let per_shard_cap = capacity.max(1).div_ceil(shards);
        let shards = (0..shards)
            .map(|_| {
                Mutex::new(Shard {
                    map: HashMap::new(),
                    clock: 0,
                })
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            shards,
            per_shard_cap,
        }
    }

    fn shard(&self, key: &K) -> &Mutex<Shard<K, V>> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        let idx = (hasher.finish() as usize) % self.shards.len();
        &self.shards[idx]
    }

    /// Look up `key`, re-stamping it as most recently used on a hit.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut shard = self.shard(key).lock().recover();
        let stamp = shard.tick();
        let entry = shard.map.get_mut(key)?;
        entry.touched = stamp;
        Some(entry.value.clone())
    }

    /// Insert or replace `key`. Returns what the insert displaced: the
    /// replaced value of a resident key, or the entry evicted to make room
    /// for a new one (replacement is not an eviction); `None` when the
    /// entry count grew by one.
    pub fn insert(&self, key: K, value: V) -> Option<Displaced<K, V>> {
        let mut shard = self.shard(&key).lock().recover();
        let touched = shard.tick();
        let full = shard.map.len() >= self.per_shard_cap;
        if let Some(entry) = shard.map.get_mut(&key) {
            entry.touched = touched;
            return Some(Displaced::Replaced(std::mem::replace(
                &mut entry.value,
                value,
            )));
        }
        let evicted = if full { shard.evict_oldest() } else { None };
        shard.map.insert(key, Entry { value, touched });
        evicted.map(|(key, value)| Displaced::Evicted(key, value))
    }

    /// Remove `key`, returning its value if present.
    pub fn remove(&self, key: &K) -> Option<V> {
        self.shard(key)
            .lock()
            .recover()
            .map
            .remove(key)
            .map(|e| e.value)
    }

    /// Drop every entry.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.lock().recover().map.clear();
        }
    }

    /// Calls `f` on every resident value, one shard locked at a time.
    pub fn for_each(&self, mut f: impl FnMut(&V)) {
        for shard in self.shards.iter() {
            shard
                .lock()
                .recover()
                .map
                .values()
                .for_each(|e| f(&e.value));
        }
    }

    /// Number of resident entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().recover().map.len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total entry bound (per-shard cap × shard count; ≥ requested capacity).
    pub fn capacity(&self) -> usize {
        self.per_shard_cap * self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_in_least_recently_used_order() {
        // Single shard => one global LRU order we can assert exactly.
        let lru: Lru<u32, &str> = Lru::with_shards(3, 1);
        assert!(lru.insert(1, "a").is_none());
        assert!(lru.insert(2, "b").is_none());
        assert!(lru.insert(3, "c").is_none());

        // Touch 1 so 2 becomes the oldest.
        assert_eq!(lru.get(&1), Some("a"));

        // Inserting a fourth entry must evict 2, not 1.
        assert_eq!(lru.insert(4, "d"), Some(Displaced::Evicted(2, "b")));
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.get(&1), Some("a"));

        // Now 3 is oldest (1 and 4 were touched more recently).
        assert_eq!(lru.insert(5, "e"), Some(Displaced::Evicted(3, "c")));
        assert_eq!(lru.len(), 3);
    }

    #[test]
    fn replacing_existing_key_does_not_evict() {
        let lru: Lru<u32, u32> = Lru::with_shards(2, 1);
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert_eq!(lru.insert(1, 11), Some(Displaced::Replaced(10)));
        assert_eq!(lru.get(&1), Some(11));
        assert_eq!(lru.get(&2), Some(20));
        assert_eq!(lru.len(), 2);
        // A replacement re-stamps the key: 2 is now the oldest.
        lru.insert(1, 12);
        assert_eq!(lru.insert(3, 30), Some(Displaced::Evicted(2, 20)));
    }

    #[test]
    fn remove_and_clear() {
        let lru: Lru<u32, u32> = Lru::with_shards(16, 1);
        for i in 0..10 {
            lru.insert(i, i * 2);
        }
        assert_eq!(lru.remove(&3), Some(6));
        assert_eq!(lru.get(&3), None);
        assert_eq!(lru.len(), 9);
        lru.clear();
        assert!(lru.is_empty());
    }

    #[test]
    fn capacity_is_bounded_across_shards() {
        let lru: Lru<u64, u64> = Lru::new(128);
        for i in 0..10_000u64 {
            lru.insert(i, i);
        }
        assert!(lru.len() <= lru.capacity());
        assert!(lru.capacity() >= 128);
    }

    #[test]
    fn concurrent_access_is_safe() {
        use std::sync::Arc;
        let lru: Arc<Lru<u64, u64>> = Arc::new(Lru::new(64));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let lru = Arc::clone(&lru);
                std::thread::spawn(move || {
                    for i in 0..1_000u64 {
                        let k = (t * 251 + i) % 96;
                        if i % 3 == 0 {
                            lru.insert(k, i);
                        } else {
                            lru.get(&k);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker thread panicked");
        }
        assert!(lru.len() <= lru.capacity());
    }
}
