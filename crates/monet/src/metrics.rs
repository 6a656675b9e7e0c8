//! Kernel observability: pre-resolved metric handles over a
//! [`cobra_obs::Registry`].
//!
//! Hot paths (index-cache probes, morsel dispatch) must not pay a
//! registry lookup per event, so the kernel resolves its core series
//! once at construction into this struct; recording is then a single
//! relaxed atomic add. The per-opcode pair `mil.op_ns{op}` /
//! `mil.op_rows{op}`, recorded on every BAT method a program calls, is
//! resolved once per method of the interpreter's fixed table, on its
//! first call. Other series with a genuine label dimension (per-procedure
//! timings, per-site failure counts, a method outside the table) go
//! through the registry on demand — those events are orders of magnitude
//! rarer than the per-row work they measure.

use std::sync::{Arc, OnceLock};

use cobra_obs::{Counter, Gauge, Histogram, Registry};

use crate::mil::BAT_METHODS;

/// The `mil.op_ns{op}` / `mil.op_rows{op}` pair of one opcode.
type OpSeries = (Arc<Histogram>, Arc<Histogram>);

/// Pre-resolved metric handles for one [`crate::kernel::Kernel`].
#[derive(Debug)]
pub struct KernelMetrics {
    registry: Arc<Registry>,
    /// Equality selections on catalog BATs answered from a cached value
    /// index (`kernel.index_cache{result=hit}`).
    pub index_hits: Arc<Counter>,
    /// Equality selections on catalog BATs answered from a value index
    /// built for them (`kernel.index_cache{result=miss}`).
    pub index_misses: Arc<Counter>,
    /// Cached value indexes released: their name was rebound, dropped or
    /// grown in place, or a rebuild replaced them
    /// (`kernel.index_cache{result=eviction}`).
    pub index_evictions: Arc<Counter>,
    /// Extension-procedure dispatches.
    pub proc_calls: Arc<Counter>,
    /// MIL programs lexed and parsed (`mil.parses`, by
    /// [`Kernel::prepare`](crate::kernel::Kernel::prepare) only).
    pub mil_parses: Arc<Counter>,
    /// MIL programs evaluated.
    pub mil_evals: Arc<Counter>,
    /// Wall time of whole MIL evaluations, nanoseconds.
    pub mil_eval_ns: Arc<Histogram>,
    /// Interpreter steps charged across all evaluations.
    pub mil_ticks: Arc<Counter>,
    /// Fuel consumed by fuel-limited evaluations.
    pub mil_fuel_used: Arc<Counter>,
    /// `PARALLEL` blocks executed.
    pub parallel_blocks: Arc<Counter>,
    /// Operator invocations that stayed on the calling thread.
    pub morsel_runs_seq: Arc<Counter>,
    /// Operator invocations fanned out over worker threads.
    pub morsel_runs_par: Arc<Counter>,
    /// Morsels dispatched by parallel operator runs.
    pub morsels: Arc<Counter>,
    /// Rows covered by morsel-driven operator runs and value-index builds.
    pub morsel_rows: Arc<Counter>,
    /// Wall nanoseconds spent in sequential operator runs.
    pub morsel_seq_ns: Arc<Counter>,
    /// Rows covered by sequential operator runs.
    pub morsel_seq_rows: Arc<Counter>,
    /// Wall nanoseconds spent in parallel (fanned-out) operator runs.
    pub morsel_par_ns: Arc<Counter>,
    /// Rows covered by parallel operator runs.
    pub morsel_par_rows: Arc<Counter>,
    /// Tail-sketch cache probes that found a current sketch.
    pub sketch_hits: Arc<Counter>,
    /// Tail-sketch cache probes that had to (re)build.
    pub sketch_misses: Arc<Counter>,
    /// Thread count most recently requested from an operator context.
    pub threads: Arc<Gauge>,
    /// The opcode series of each of [`BAT_METHODS`], resolved on first
    /// record.
    ops: [OnceLock<OpSeries>; BAT_METHODS.len()],
}

impl KernelMetrics {
    /// Resolves the kernel's core series in `registry`.
    pub fn new(registry: Arc<Registry>) -> Self {
        KernelMetrics {
            index_hits: registry.counter("kernel.index_cache", &[("result", "hit")]),
            index_misses: registry.counter("kernel.index_cache", &[("result", "miss")]),
            index_evictions: registry.counter("kernel.index_cache", &[("result", "eviction")]),
            proc_calls: registry.counter("kernel.proc_calls", &[]),
            mil_parses: registry.counter("mil.parses", &[]),
            mil_evals: registry.counter("mil.evals", &[]),
            mil_eval_ns: registry.histogram("mil.eval_ns", &[]),
            mil_ticks: registry.counter("mil.ticks", &[]),
            mil_fuel_used: registry.counter("mil.fuel_used", &[]),
            parallel_blocks: registry.counter("mil.parallel_blocks", &[]),
            morsel_runs_seq: registry.counter("kernel.morsel_runs", &[("mode", "sequential")]),
            morsel_runs_par: registry.counter("kernel.morsel_runs", &[("mode", "parallel")]),
            morsels: registry.counter("kernel.morsels", &[]),
            morsel_rows: registry.counter("kernel.morsel_rows", &[]),
            morsel_seq_ns: registry.counter("kernel.morsel_ns", &[("mode", "sequential")]),
            morsel_seq_rows: registry.counter("kernel.morsel_mode_rows", &[("mode", "sequential")]),
            morsel_par_ns: registry.counter("kernel.morsel_ns", &[("mode", "parallel")]),
            morsel_par_rows: registry.counter("kernel.morsel_mode_rows", &[("mode", "parallel")]),
            sketch_hits: registry.counter("kernel.sketch_cache", &[("result", "hit")]),
            sketch_misses: registry.counter("kernel.sketch_cache", &[("result", "miss")]),
            threads: registry.gauge("kernel.threads", &[]),
            ops: std::array::from_fn(|_| OnceLock::new()),
            registry,
        }
    }

    /// The backing registry (for snapshots and ad-hoc series).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Records one MIL BAT-method invocation together with the receiver's
    /// row count (`mil.op_ns{op=...}`, `mil.op_rows{op=...}`), so
    /// `op_ns.sum() / op_rows.sum()` yields a measured
    /// nanoseconds-per-row figure per opcode for the plan coster.
    pub fn record_op_sized(&self, op: &str, ns: u64, rows: u64) {
        let resolve = || {
            (
                self.registry.histogram("mil.op_ns", &[("op", op)]),
                self.registry.histogram("mil.op_rows", &[("op", op)]),
            )
        };
        let record = |(time, size): &OpSeries| {
            time.record(ns);
            size.record(rows);
        };
        match BAT_METHODS.iter().position(|&method| method == op) {
            Some(i) => record(self.ops[i].get_or_init(resolve)),
            None => record(&resolve()),
        }
    }

    /// Records one extension-procedure call (`kernel.proc_ns{proc=...}`).
    pub fn record_proc(&self, proc: &str, ns: u64) {
        self.registry
            .histogram("kernel.proc_ns", &[("proc", proc)])
            .record(ns);
    }

    /// Records an injected-fault failure at `site`
    /// (`faults.failures{site=...}`).
    pub fn record_failure(&self, site: &str) {
        self.registry
            .counter("faults.failures", &[("site", site)])
            .inc();
    }
}

impl Default for KernelMetrics {
    fn default() -> Self {
        KernelMetrics::new(Arc::new(Registry::new()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_series_appear_in_snapshots() {
        let m = KernelMetrics::default();
        m.index_hits.inc();
        m.index_misses.add(2);
        m.record_op_sized("join", 1500, 10);
        m.record_failure("bat.join");
        let snap = m.registry().snapshot();
        assert_eq!(snap.counter("kernel.index_cache", &[("result", "hit")]), 1);
        assert_eq!(snap.counter("kernel.index_cache", &[("result", "miss")]), 2);
        assert_eq!(snap.counter("faults.failures", &[("site", "bat.join")]), 1);
        let op = snap.histogram("mil.op_ns", &[("op", "join")]).unwrap();
        assert_eq!(op.count(), 1);
        assert_eq!(op.sum(), 1500);
    }

    #[test]
    fn table_and_registry_opcodes_record_the_same_series() {
        let m = KernelMetrics::default();
        for op in ["select", "frobnicate"] {
            m.record_op_sized(op, 100, 7);
            m.record_op_sized(op, 50, 3);
        }
        let snap = m.registry().snapshot();
        for op in ["select", "frobnicate"] {
            let ns = snap.histogram("mil.op_ns", &[("op", op)]).unwrap();
            let rows = snap.histogram("mil.op_rows", &[("op", op)]).unwrap();
            assert_eq!((ns.count(), ns.sum()), (2, 150), "{op}");
            assert_eq!((rows.count(), rows.sum()), (2, 10), "{op}");
        }
        // Nothing is registered before its first record.
        assert!(snap.histogram("mil.op_ns", &[("op", "join")]).is_none());
    }
}
