//! The query-layer caches and the staleness stamp that guards them.
//!
//! The paper's conceptual pre-processor is built around one idea — check
//! whether the metadata a query needs already exists, and is still
//! current, before recomputing it. This module applies the same
//! discipline to the query path itself:
//!
//! * **[`Stamp`]** — the only staleness currency in the system:
//!   `(boot epoch, commit seq)`, bumped by writers *after* applying and
//!   captured by readers *before* executing, so equal stamps prove
//!   nothing changed in between (DESIGN.md §6f has the full contract).
//! * **[`PlanCache`]** — `RETRIEVE EVENTS …`-family queries plan a Moa
//!   selection over the event tuple; what the planner chooses depends
//!   only on (video, event kind) and on whether a driver is named —
//!   never on *which* driver — so both verdicts are cached under
//!   (video, kind), each with its program parsed once, and each request
//!   binds its driver's name as the program's parameter. Budgets
//!   (fuel, deadline, cancellation) apply at evaluation time, never at
//!   compile time, so a cached plan is exactly as guarded as a fresh
//!   one.
//! * **[`ResultCache`]** — answers keyed by (video, normalized query
//!   text), each guarded by the one stamp of what it read. The one
//!   implementation serves both tiers: a `Vdbms` guards an answer — its
//!   rows and the segment list they encode to — with its video's stamp,
//!   the scatter-gather router guards what one shard answered — a
//!   single-video answer, or that shard's part of a cross-video one, as
//!   text — with that shard's stamp. An entry is an answer's bytes as
//!   well as its rows, so every reply is copied from it, never
//!   re-encoded.
//!
//! Both caches sit on the shared [`cobra_cache::Lru`] and publish
//! `cache.*` counters/gauges through the owner's metrics registry, so
//! `stats` and `PROFILE` make hits, misses, evictions and residency
//! visible. Every gauge moves by a delta — decided under the LRU
//! shard's lock ([`Displaced`] says what an insert took out), or one
//! step for the generation — never set from a length or a value read
//! after the lock is released, so racing writers leave the gauges equal
//! to what is resident and to the current generation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cobra_cache::{Displaced, Lru};
use cobra_obs::{Counter, Gauge, Registry};
use f1_moa::PlanChoice;
use f1_monet::Prepared;

/// Entry bound of the plan cache. Plans are (video, kind)-shaped, so
/// even a large catalog stays far below this.
const PLAN_CACHE_CAP: usize = 256;

/// Entry bound of a result cache, local or routed.
const RESULT_CACHE_CAP: usize = 512;

/// A point in one catalog's commit history.
///
/// `epoch` is the storage boot epoch (0 when memory-only, strictly
/// increasing per recovery when durable) and `seq` the commit sequence
/// number within it. Commit seqs restart after a crash, so without the
/// epoch a post-crash process could collide with a pre-crash stamp and
/// serve stale results; the epoch makes every incarnation's stamps
/// disjoint. Ordered by `(epoch, seq)`, so the later of two
/// observations of one catalog is their `max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Stamp {
    /// Boot epoch of the catalog's storage.
    pub epoch: u64,
    /// Commit sequence number within the epoch.
    pub seq: u64,
}

/// A planner verdict with the program it runs as, parsed once.
#[derive(Debug)]
pub struct PreparedPlan {
    /// The verdict, rendered as text only for `EXPLAIN` and `PROFILE`.
    pub choice: PlanChoice,
    /// The verdict's program ([`PlanChoice::prepare`]).
    pub program: Prepared,
}

/// A compiled event-selection plan: the cost-based planner's verdicts
/// on selecting one kind of event from one video's event tuple.
#[derive(Debug)]
pub struct CompiledPlan {
    /// Selecting every event of the kind.
    pub of_kind: PreparedPlan,
    /// Selecting the events of the kind that name one driver: its
    /// program compares the driver field with parameter `$0`, which
    /// each request binds to its driver's name.
    pub of_driver: PreparedPlan,
    /// Cost-model generation this plan was compiled under.
    pub generation: u64,
}

impl CompiledPlan {
    /// The verdict a statement runs on: [`of_driver`](Self::of_driver)
    /// when it names a driver, [`of_kind`](Self::of_kind) otherwise.
    pub fn selection(&self, names_driver: bool) -> &PreparedPlan {
        if names_driver {
            &self.of_driver
        } else {
            &self.of_kind
        }
    }
}

/// The compiled-plan cache with its observability counters.
pub struct PlanCache {
    plans: Lru<(String, String, u64), Arc<CompiledPlan>>,
    /// Cost-model generation. It participates in every key, so
    /// advancing it orphans all cached plans at once — they age out of
    /// the LRU while every lookup recompiles against fresh statistics.
    generation: AtomicU64,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    entries: Arc<Gauge>,
    generation_gauge: Arc<Gauge>,
}

impl PlanCache {
    /// Resolves the `cache.plan*` series in `registry` (so they appear
    /// in snapshots as zeros from boot) and creates an empty cache.
    pub fn new(registry: &Registry) -> Self {
        PlanCache {
            plans: Lru::new(PLAN_CACHE_CAP),
            generation: AtomicU64::new(0),
            hits: registry.counter("cache.plan", &[("result", "hit")]),
            misses: registry.counter("cache.plan", &[("result", "miss")]),
            evictions: registry.counter("cache.plan", &[("result", "eviction")]),
            entries: registry.gauge("cache.plan.entries", &[]),
            generation_gauge: registry.gauge("cache.plan.generation", &[]),
        }
    }

    /// Current cost-model generation.
    pub fn cost_generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Advances the cost-model generation, orphaning every cached plan
    /// (their keys carry the old generation). Returns the new value.
    pub fn advance_cost_generation(&self) -> u64 {
        let next = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        // A delta, not `set(next)`: two advances racing would otherwise
        // publish their values in either order.
        self.generation_gauge.add(1);
        next
    }

    /// Cached compiled plan for `(video, kind)` at the current
    /// generation, counting hit/miss.
    pub fn get(&self, video: &str, kind: &str) -> Option<Arc<CompiledPlan>> {
        let found = self.peek(video, kind);
        match &found {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        found
    }

    /// Like [`PlanCache::get`] but without touching the hit/miss
    /// counters — for `EXPLAIN`, which must never skew execution stats.
    pub fn peek(&self, video: &str, kind: &str) -> Option<Arc<CompiledPlan>> {
        self.plans
            .get(&(video.to_string(), kind.to_string(), self.cost_generation()))
    }

    /// Stores a freshly compiled plan under the current generation.
    pub fn store(&self, video: &str, kind: &str, plan: Arc<CompiledPlan>) {
        let key = (video.to_string(), kind.to_string(), self.cost_generation());
        match self.plans.insert(key, plan) {
            None => self.entries.add(1),
            Some(Displaced::Evicted(..)) => self.evictions.inc(),
            Some(Displaced::Replaced(_)) => {}
        }
    }
}

/// A cached answer plus the stamp of what it read.
#[derive(Debug)]
pub struct CachedResult<V> {
    /// The answer.
    pub value: V,
    /// The stamp of the one scope the answer read (a video locally, a
    /// shard at the router), captured before execution. The key
    /// determines which scope that is, so the guard carries no scope id.
    guard: Stamp,
    /// Approximate resident size, for the `cache.result.bytes` gauge.
    bytes: i64,
}

/// Answers keyed by (video, normalized query text), served only while
/// the stamp they were computed against is still current.
pub struct ResultCache<V> {
    entries: Lru<(String, String), Arc<CachedResult<V>>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    invalidated: Arc<Counter>,
    n_entries: Arc<Gauge>,
    bytes: Arc<Gauge>,
}

impl<V> ResultCache<V> {
    /// Resolves the `cache.result*` series in `registry` (so they
    /// appear in snapshots as zeros from boot) and creates an empty
    /// cache.
    pub fn new(registry: &Registry) -> Self {
        ResultCache {
            entries: Lru::new(RESULT_CACHE_CAP),
            hits: registry.counter("cache.result", &[("result", "hit")]),
            misses: registry.counter("cache.result", &[("result", "miss")]),
            evictions: registry.counter("cache.result", &[("result", "eviction")]),
            invalidated: registry.counter("cache.result", &[("result", "invalidated")]),
            n_entries: registry.gauge("cache.result.entries", &[]),
            bytes: registry.gauge("cache.result.bytes", &[]),
        }
    }

    /// Cached answer for `(video, normalized query)` provided its guard
    /// equals `current`. A mismatch drops the stale entry (counted as
    /// `invalidated`) and reports a miss. `None` means a current stamp
    /// is unknown: that is a miss too, but the entry stays — it may
    /// prove current again once the stamp is known.
    pub fn lookup(
        &self,
        video: &str,
        normalized: &str,
        current: Option<Stamp>,
    ) -> Option<Arc<CachedResult<V>>> {
        let key = (video.to_string(), normalized.to_string());
        if let Some(cached) = current.and_then(|_| self.entries.get(&key)) {
            if Some(cached.guard) == current {
                self.hits.inc();
                return Some(cached);
            }
            if let Some(stale) = self.entries.remove(&key) {
                self.invalidated.inc();
                self.bytes.add(-stale.bytes);
                self.n_entries.add(-1);
            }
        }
        self.misses.inc();
        None
    }

    /// Stores an answer under `guard` — the stamp captured before the
    /// execution read any data — and returns the entry. `value_bytes`
    /// approximates the answer's resident size.
    pub fn store(
        &self,
        video: &str,
        normalized: &str,
        value: V,
        guard: Stamp,
        value_bytes: usize,
    ) -> Arc<CachedResult<V>> {
        let bytes = (video.len() + normalized.len() + value_bytes) as i64;
        let key = (video.to_string(), normalized.to_string());
        self.bytes.add(bytes);
        let cached = Arc::new(CachedResult {
            value,
            guard,
            bytes,
        });
        // Every gauge moves by what this insert displaced, decided under
        // the shard's lock, so racing writers leave them exact.
        match self.entries.insert(key, Arc::clone(&cached)) {
            None => self.n_entries.add(1),
            Some(Displaced::Replaced(old)) => self.bytes.add(-old.bytes),
            Some(Displaced::Evicted(_, old)) => {
                self.evictions.inc();
                self.bytes.add(-old.bytes);
            }
        }
        cached
    }

    /// What the `cache.result.entries` and `cache.result.bytes` gauges
    /// read at rest, counted from the resident entries themselves: the
    /// entries, and the sum of their bytes. With no lookup or store in
    /// flight, each gauge equals its count; a test's quiescent end
    /// asserts that once, without waiting.
    pub fn at_rest(&self) -> [(&'static str, i64); 2] {
        let (mut entries, mut bytes) = (0, 0);
        self.entries.for_each(|cached| {
            entries += 1;
            bytes += cached.bytes;
        });
        [
            ("cache.result.entries", entries),
            ("cache.result.bytes", bytes),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(epoch: u64, seq: u64) -> Stamp {
        Stamp { epoch, seq }
    }

    fn cache(registry: &Registry) -> ResultCache<Vec<u32>> {
        ResultCache::new(registry)
    }

    #[test]
    fn result_hits_only_on_a_matching_stamp() {
        let registry = Registry::new();
        let results = cache(&registry);
        let s1 = stamp(0, 1);
        assert!(results
            .lookup("v", "RETRIEVE HIGHLIGHTS", Some(s1))
            .is_none());
        results.store("v", "RETRIEVE HIGHLIGHTS", vec![1, 2, 3], s1, 12);
        assert_eq!(
            results
                .lookup("v", "RETRIEVE HIGHLIGHTS", Some(s1))
                .map(|r| r.value.len()),
            Some(3)
        );

        // A later seq (a write happened) invalidates the entry.
        let s2 = stamp(0, 2);
        assert!(results
            .lookup("v", "RETRIEVE HIGHLIGHTS", Some(s2))
            .is_none());
        // And the stale entry is gone even for the original stamp.
        assert!(results
            .lookup("v", "RETRIEVE HIGHLIGHTS", Some(s1))
            .is_none());

        let snap = registry.snapshot();
        assert_eq!(snap.counter("cache.result", &[("result", "hit")]), 1);
        assert_eq!(
            snap.counter("cache.result", &[("result", "invalidated")]),
            1
        );
        assert_eq!(snap.counter("cache.result", &[("result", "miss")]), 3);
    }

    #[test]
    fn different_epoch_same_seq_never_hits() {
        let registry = Registry::new();
        let results = cache(&registry);
        results.store("v", "Q", vec![7], stamp(1, 5), 4);
        // A rebooted catalog restarts its seqs; reaching seq 5 again
        // under epoch 2 proves nothing about the epoch-1 answer.
        assert!(results.lookup("v", "Q", Some(stamp(2, 5))).is_none());
        let snap = registry.snapshot();
        assert_eq!(snap.counter("cache.result", &[("result", "hit")]), 0);
        assert_eq!(
            snap.counter("cache.result", &[("result", "invalidated")]),
            1
        );
    }

    #[test]
    fn unknown_current_stamp_misses_but_keeps_the_entry() {
        let registry = Registry::new();
        let results = cache(&registry);
        let s = stamp(0, 1);
        results.store("v", "Q", vec![1], s, 4);
        assert!(
            results.lookup("v", "Q", None).is_none(),
            "unknown is never a hit"
        );
        // The stamp becomes known again and still matches: a hit.
        assert!(results.lookup("v", "Q", Some(s)).is_some());
        let snap = registry.snapshot();
        assert_eq!(snap.counter("cache.result", &[("result", "miss")]), 1);
        assert_eq!(
            snap.counter("cache.result", &[("result", "invalidated")]),
            0
        );
    }

    #[test]
    fn stamps_order_by_epoch_then_seq() {
        assert!(stamp(2, 0) > stamp(1, 99));
        assert!(stamp(1, 3) > stamp(1, 2));
        assert_eq!(stamp(1, 3).max(stamp(1, 2)), stamp(1, 3));
    }

    #[test]
    fn byte_and_entry_gauges_track_residency() {
        let registry = Registry::new();
        let results = cache(&registry);
        results.store("v", "Q1", (0..10).collect(), stamp(0, 1), 40);
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("cache.result.entries", &[]), 1);
        assert!(snap.gauge("cache.result.bytes", &[]) > 0);

        // Invalidation returns the gauges to zero.
        assert!(results.lookup("v", "Q1", Some(stamp(0, 2))).is_none());
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("cache.result.entries", &[]), 0);
        assert_eq!(snap.gauge("cache.result.bytes", &[]), 0);
    }

    #[test]
    fn a_key_stored_twice_leaves_one_entrys_bytes() {
        let registry = Registry::new();
        let results = cache(&registry);
        results.store("v", "Q", vec![1], stamp(0, 1), 12);
        let one = registry.snapshot().gauge("cache.result.bytes", &[]);
        assert_eq!(one, ("v".len() + "Q".len() + 12) as i64);
        // Two requests that missed together both store their answer.
        results.store("v", "Q", vec![1], stamp(0, 1), 12);
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("cache.result.bytes", &[]), one);
        assert_eq!(snap.gauge("cache.result.entries", &[]), 1);
        assert_eq!(snap.counter("cache.result", &[("result", "eviction")]), 0);
    }

    #[test]
    fn racing_writers_leave_the_gauges_exact() {
        let registry = Registry::new();
        let results = cache(&registry);
        let plans = PlanCache::new(&registry);
        let plan = plan_stub(0);
        // More keys than the 512-entry bound, so stores replace, evict
        // and fill while lookups under a newer stamp invalidate.
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (results, plans, plan) = (&results, &plans, &plan);
                s.spawn(move || {
                    for i in 0..1_500u64 {
                        let key = format!("Q{:04}", (i * 7 + t * 131) % 700);
                        results.store("v", &key, vec![1], stamp(0, 1), 10);
                        let other = format!("Q{:04}", (i * 13 + t) % 700);
                        results.lookup("v", &other, Some(stamp(0, 2)));
                        plans.store("v", &key, Arc::clone(plan));
                        if i % 100 == t {
                            plans.advance_cost_generation();
                        }
                    }
                });
            }
        });
        let snap = registry.snapshot();
        let resident = results.entries.len() as i64;
        assert_eq!(snap.gauge("cache.result.entries", &[]), resident);
        let per_entry = ("v".len() + "Q0000".len() + 10) as i64;
        assert_eq!(snap.gauge("cache.result.bytes", &[]), resident * per_entry);
        assert_eq!(
            snap.gauge("cache.plan.entries", &[]),
            plans.plans.len() as i64
        );
        assert_eq!(
            snap.gauge("cache.plan.generation", &[]),
            plans.cost_generation() as i64
        );
        assert_eq!(plans.cost_generation(), 4 * 15);
    }

    fn plan_stub(generation: u64) -> Arc<CompiledPlan> {
        let kernel = f1_monet::Kernel::new();
        let prepared = || {
            let choice = f1_moa::plan(
                f1_moa::MoaExpr::collection("v.ev.kind"),
                &f1_monet::PlanStats::default(),
                &f1_moa::PlannerConfig::default(),
            );
            let program = choice.prepare(&kernel).unwrap();
            PreparedPlan { choice, program }
        };
        Arc::new(CompiledPlan {
            of_kind: prepared(),
            of_driver: prepared(),
            generation,
        })
    }

    #[test]
    fn plan_cache_counts_hits_and_misses() {
        let registry = Registry::new();
        let plans = PlanCache::new(&registry);
        assert!(plans.get("v", "highlight").is_none());
        plans.store("v", "highlight", plan_stub(0));
        assert!(plans.get("v", "highlight").is_some());
        let snap = registry.snapshot();
        assert_eq!(snap.counter("cache.plan", &[("result", "hit")]), 1);
        assert_eq!(snap.counter("cache.plan", &[("result", "miss")]), 1);
        assert_eq!(snap.gauge("cache.plan.entries", &[]), 1);
    }

    #[test]
    fn advancing_the_generation_orphans_cached_plans() {
        let registry = Registry::new();
        let plans = PlanCache::new(&registry);
        plans.store("v", "highlight", plan_stub(0));
        assert!(plans.get("v", "highlight").is_some());

        // New cost-model generation: the old plan is unreachable, the
        // next lookup must recompile.
        assert_eq!(plans.advance_cost_generation(), 1);
        assert!(plans.get("v", "highlight").is_none());
        assert!(plans.peek("v", "highlight").is_none());

        // A plan stored under the new generation hits again.
        plans.store("v", "highlight", plan_stub(1));
        assert_eq!(plans.get("v", "highlight").map(|p| p.generation), Some(1));

        let snap = registry.snapshot();
        assert_eq!(snap.gauge("cache.plan.generation", &[]), 1);
        // peek never counted: one miss (post-advance), two hits.
        assert_eq!(snap.counter("cache.plan", &[("result", "hit")]), 2);
        assert_eq!(snap.counter("cache.plan", &[("result", "miss")]), 1);
    }
}
