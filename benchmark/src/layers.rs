//! Per-layer counts, read from outside.
//!
//! The program already counts its own work in metric registries (one
//! per `Vdbms`, one per router). The benchmark copies them at the start
//! and at the end of the measured interval and reports the difference
//! per operation, so a ratio is measured where the work happens and
//! costs the measured run two snapshots.

use std::collections::BTreeMap;

use cobra_obs::Snapshot;

use crate::fixture::Fixture;

/// Registry copies of every process-like part of a fixture.
pub struct Counts {
    shards: Vec<Snapshot>,
    router: Option<Snapshot>,
}

impl Counts {
    pub fn take(fx: &Fixture) -> Counts {
        Counts {
            shards: fx
                .shards
                .iter()
                .map(|s| s.vdbms.kernel().metrics().registry().snapshot())
                .collect(),
            router: fx.router.as_ref().map(|r| r.registry().snapshot()),
        }
    }

    /// `self - earlier`, registry by registry.
    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            shards: self
                .shards
                .iter()
                .zip(&earlier.shards)
                .map(|(now, then)| now.delta(then))
                .collect(),
            router: match (&self.router, &earlier.router) {
                (Some(now), Some(then)) => Some(now.delta(then)),
                _ => None,
            },
        }
    }
}

/// Sum of a counter over the given registries; `labels` must all match,
/// other labels are summed over.
fn total(registries: &[&Snapshot], name: &str, labels: &[(&str, &str)]) -> f64 {
    registries
        .iter()
        .flat_map(|s| s.counters.iter())
        .filter(|(key, _)| key.name == name && labels.iter().all(|&(k, v)| key.label(k) == Some(v)))
        .map(|(_, &n)| n)
        .sum::<u64>() as f64
}

fn hit_ratio(registries: &[&Snapshot], name: &str) -> f64 {
    let hits = total(registries, name, &[("result", "hit")]);
    let misses = total(registries, name, &[("result", "miss")]);
    ratio(hits, hits + misses)
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// What the generator got answered during the interval the counts
/// cover.
pub struct Interval {
    /// Reads, cross-video ones included.
    pub reads: f64,
    /// Writes acknowledged.
    pub writes: f64,
    /// Tagged writes whose push arrived.
    pub tagged: f64,
}

/// The count-based per-layer metrics of one measured interval. A layer
/// the workload does not run through (the router on a direct workload,
/// the WAL on an in-memory one) reads 0. `slowdown` is the host's over
/// the interval: the one duration in here, the server's own latency
/// histogram, is scaled by it like every other the benchmark reports.
pub fn count_metrics(delta: &Counts, slowdown: f64, ops: &Interval) -> BTreeMap<&'static str, f64> {
    let shards: Vec<&Snapshot> = delta.shards.iter().collect();
    let router: Vec<&Snapshot> = delta.router.iter().collect();
    let (shards, router) = (shards.as_slice(), router.as_slice());
    let served = total(shards, "serve.requests", &[]);
    // Server-side latency of admitted queries, all shards pooled.
    let (latency_sum, latency_n) = shards
        .iter()
        .filter_map(|s| s.histogram("serve.latency_us", &[]))
        .fold((0.0, 0.0), |(sum, n), h| {
            (sum + h.sum() as f64, n + h.count() as f64)
        });
    // Standing queries are swept by the router when there is one.
    let hub = |name: &str| total(if router.is_empty() { shards } else { router }, name, &[]);
    BTreeMap::from([
        (
            "router.version_probes_per_req",
            ratio(
                total(shards, "serve.requests", &[("cmd", "version")]),
                if router.is_empty() { 0.0 } else { ops.reads },
            ),
        ),
        (
            "router.forwards_per_req",
            ratio(
                total(router, "router.forward", &[("result", "ok")]),
                ops.reads,
            ),
        ),
        ("router.cache_hit_ratio", hit_ratio(router, "cache.result")),
        (
            "serve.server_latency_us",
            ratio(latency_sum, latency_n) / slowdown,
        ),
        (
            "serve.reactor_wakeups_per_req",
            ratio(total(shards, "reactor.wakeups", &[]), served),
        ),
        (
            "serve.reactor_events_per_req",
            ratio(total(shards, "reactor.events", &[]), served),
        ),
        (
            "serve.rejected_per_kreq",
            1e3 * ratio(
                total(shards, "serve.rejected", &[]) + total(router, "serve.rejected", &[]),
                served,
            ),
        ),
        ("cache.result_hit_ratio", hit_ratio(shards, "cache.result")),
        ("cache.plan_hit_ratio", hit_ratio(shards, "cache.plan")),
        (
            "cache.result_invalidated_per_write",
            ratio(
                total(shards, "cache.result", &[("result", "invalidated")]),
                ops.writes,
            ),
        ),
        (
            "cache.coalesced_per_kreq",
            1e3 * ratio(total(shards, "cache.coalesced", &[]), ops.reads),
        ),
        (
            "monet.mil_evals_per_req",
            ratio(total(shards, "mil.evals", &[]), ops.reads),
        ),
        (
            "monet.morsel_rows_per_req",
            ratio(total(shards, "kernel.morsel_rows", &[]), ops.reads),
        ),
        (
            "monet.index_cache_hit_ratio",
            hit_ratio(shards, "kernel.index_cache"),
        ),
        (
            "monet.sketch_cache_hit_ratio",
            hit_ratio(shards, "kernel.sketch_cache"),
        ),
        (
            "store.wal_bytes_per_write",
            ratio(total(shards, "store.wal.bytes", &[]), ops.writes),
        ),
        (
            "store.wal_fsyncs_per_write",
            ratio(total(shards, "store.wal.fsyncs", &[]), ops.writes),
        ),
        (
            "stream.pushes_per_tagged_write",
            ratio(hub("stream.pushes"), ops.tagged),
        ),
        (
            "stream.unchanged_per_write",
            ratio(hub("stream.unchanged"), ops.writes),
        ),
        ("stream.skipped", hub("stream.skipped")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_obs::Registry;

    #[test]
    fn totals_sum_over_unnamed_labels_and_registries() {
        let (a, b) = (Registry::new(), Registry::new());
        a.counter("serve.requests", &[("cmd", "query")]).add(7);
        a.counter("serve.requests", &[("cmd", "version")]).add(3);
        b.counter("serve.requests", &[("cmd", "version")]).add(2);
        b.counter("serve.rejected", &[("kind", "overloaded")])
            .add(1);
        let (a, b) = (a.snapshot(), b.snapshot());
        let snaps = [&a, &b];
        assert_eq!(total(&snaps, "serve.requests", &[]), 12.0);
        assert_eq!(total(&snaps, "serve.requests", &[("cmd", "version")]), 5.0);
        assert_eq!(total(&snaps, "serve.absent", &[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn a_direct_workload_reads_zero_on_the_router_rows() {
        let shard = Registry::new();
        shard.counter("cache.result", &[("result", "hit")]).add(90);
        shard.counter("cache.result", &[("result", "miss")]).add(10);
        shard
            .counter("serve.requests", &[("cmd", "version")])
            .add(4);
        let delta = Counts {
            shards: vec![shard.snapshot()],
            router: None,
        };
        let ops = Interval {
            reads: 100.0,
            writes: 10.0,
            tagged: 5.0,
        };
        let m = count_metrics(&delta, 1.0, &ops);
        assert_eq!(m["cache.result_hit_ratio"], 0.9);
        assert_eq!(m["router.cache_hit_ratio"], 0.0);
        assert_eq!(m["router.version_probes_per_req"], 0.0);
        assert_eq!(m["router.forwards_per_req"], 0.0);
    }
}
