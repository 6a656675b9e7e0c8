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
//!   (video, kind) and each request binds its own literal. Budgets
//!   (fuel, deadline, cancellation) apply at evaluation time, never at
//!   compile time, so a cached plan is exactly as guarded as a fresh
//!   one.
//! * **[`ResultCache`]** — answers keyed by (video, normalized query
//!   text), each guarded by the one stamp of what it read. The one
//!   implementation serves both tiers: a `Vdbms` guards an answer with
//!   its video's stamp, the scatter-gather router guards what one shard
//!   answered — a single-video answer, or that shard's part of a
//!   cross-video one — with that shard's stamp.
//!
//! Both caches sit on the shared [`cobra_cache::Lru`] and publish
//! `cache.*` counters/gauges through the owner's metrics registry, so
//! `stats` and `PROFILE` make hits, misses, evictions and residency
//! visible.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cobra_cache::Lru;
use cobra_obs::{Counter, Gauge, Registry};
use f1_moa::PlanChoice;

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

/// A compiled event-selection plan: the cost-based planner's verdicts
/// on selecting one kind of event from one video's event tuple.
#[derive(Debug)]
pub struct CompiledPlan {
    /// Selecting every event of the kind.
    pub of_kind: PlanChoice,
    /// Selecting the events of the kind that name one driver. Planned
    /// with a stand-in name; each request binds its own
    /// ([`f1_moa::MoaExpr::with_eq_literal`]).
    pub of_driver: PlanChoice,
    /// Cost-model generation this plan was compiled under.
    pub generation: u64,
}

impl CompiledPlan {
    /// The verdict a statement runs on: [`of_driver`](Self::of_driver)
    /// when it names a driver, [`of_kind`](Self::of_kind) otherwise.
    pub fn selection(&self, names_driver: bool) -> &PlanChoice {
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
        self.generation_gauge.set(next as i64);
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
        if self.plans.insert(key, plan).is_some() {
            self.evictions.inc();
        }
        self.entries.set(self.plans.len() as i64);
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
                self.n_entries.set(self.entries.len() as i64);
            }
        }
        self.misses.inc();
        None
    }

    /// Stores an answer under `guard` — the stamp captured before the
    /// execution read any data. `value_bytes` approximates the
    /// answer's resident size.
    pub fn store(&self, video: &str, normalized: &str, value: V, guard: Stamp, value_bytes: usize) {
        let bytes = (video.len() + normalized.len() + value_bytes) as i64;
        let key = (video.to_string(), normalized.to_string());
        self.bytes.add(bytes);
        let cached = Arc::new(CachedResult {
            value,
            guard,
            bytes,
        });
        if let Some((_, old)) = self.entries.insert(key, cached) {
            self.evictions.inc();
            self.bytes.add(-old.bytes);
        }
        self.n_entries.set(self.entries.len() as i64);
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

    fn plan_stub(generation: u64) -> Arc<CompiledPlan> {
        let choice = || {
            f1_moa::plan(
                f1_moa::MoaExpr::collection("v.ev.kind"),
                &f1_monet::PlanStats::default(),
                &f1_moa::PlannerConfig::default(),
            )
        };
        Arc::new(CompiledPlan {
            of_kind: choice(),
            of_driver: choice(),
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
