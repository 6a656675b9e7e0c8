//! Per-BAT cardinality sketches and the measured-statistics bundle the
//! cost-based planner consumes.
//!
//! A [`BatSketch`] is a cheap summary of one BAT's tail column — row
//! count, a distinct-count estimate, and min/max for numeric tails —
//! built lazily and cached by the kernel per `(bat id, version)`, the
//! same discipline as the value-index cache. [`PlanStats`] packages the
//! sketches together with the measured per-opcode costs and sequential
//! vs parallel morsel throughput already flowing through the metrics
//! registry, so the logical layer (`f1-moa`) can cost a conjunction's
//! term orders and size `threadcnt` without depending on the
//! observability crate directly.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::bat::{Bat, ColumnData};
use crate::value::Atom;

/// Upper bound on the rows examined for a distinct-count estimate.
/// Beyond it the column is stride-sampled; min/max always scan fully
/// (a single memory-bandwidth pass, paid once per BAT version).
const SKETCH_SAMPLE: usize = 4096;

/// A summary of one BAT's tail column for selectivity estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct BatSketch {
    /// Row count at build time.
    pub rows: usize,
    /// True when the head is a void run: a join against this BAT probes
    /// by position and needs no index.
    pub head_void: bool,
    /// Estimated number of distinct tail values (exact for string tails
    /// — the dictionary length is free — and for columns within the
    /// sample bound; otherwise a smoothed-jackknife scale-up).
    pub tail_distinct: usize,
    /// Smallest numeric tail value (widened to f64; NaNs ignored).
    pub tail_min: Option<f64>,
    /// Largest numeric tail value (widened to f64; NaNs ignored).
    pub tail_max: Option<f64>,
}

/// Estimates the distinct count of `rows` values from a stride sample.
///
/// Uses the first-order jackknife: `d + f1 * (rows - n) / n`, where `d`
/// distinct values were seen in a sample of `n` and `f1` of them exactly
/// once. With no singletons the domain is saturated (estimate `d`); with
/// all singletons the column is likely a key (estimate approaches
/// `rows`). Clamped to `[d, rows]`.
fn estimate_distinct(rows: usize, sample_n: usize, d: usize, f1: usize) -> usize {
    if rows == 0 || sample_n == 0 {
        return 0;
    }
    if sample_n >= rows {
        return d;
    }
    let est = d as f64 + f1 as f64 * (rows - sample_n) as f64 / sample_n as f64;
    (est.round() as usize).clamp(d, rows)
}

/// Distinct estimate over hashable sample keys drawn with `stride`.
fn sampled_distinct<K: std::hash::Hash + Eq, T: Copy>(vals: &[T], key: impl Fn(T) -> K) -> usize {
    let rows = vals.len();
    let stride = rows.div_ceil(SKETCH_SAMPLE).max(1);
    let mut counts: HashMap<K, u32> = HashMap::with_capacity(SKETCH_SAMPLE.min(rows));
    let mut sample_n = 0usize;
    let mut i = 0usize;
    while i < rows {
        *counts.entry(key(vals[i])).or_insert(0) += 1;
        sample_n += 1;
        i += stride;
    }
    let d = counts.len();
    let f1 = counts.values().filter(|&&c| c == 1).count();
    estimate_distinct(rows, sample_n, d, f1)
}

/// Min/max over a slice widened to f64, skipping NaNs.
fn min_max(vals: impl Iterator<Item = f64>) -> (Option<f64>, Option<f64>) {
    let mut min = None;
    let mut max = None;
    for v in vals {
        if v.is_nan() {
            continue;
        }
        min = Some(min.map_or(v, |m: f64| m.min(v)));
        max = Some(max.map_or(v, |m: f64| m.max(v)));
    }
    (min, max)
}

impl BatSketch {
    /// Builds the sketch of `bat`'s tail column.
    pub fn build(bat: &Bat) -> BatSketch {
        let rows = bat.len();
        let tail = bat.tail();
        let (tail_distinct, tail_min, tail_max) = match tail.data() {
            // Void tails are dense oid runs: every value distinct, the
            // bounds are arithmetic.
            None => {
                let (base, len) = tail.void_run().unwrap_or((0, rows));
                if len == 0 {
                    (0, None, None)
                } else {
                    (len, Some(base as f64), Some((base + len as u64 - 1) as f64))
                }
            }
            Some(ColumnData::Oid(v)) => {
                let (min, max) = min_max(v.iter().map(|&x| x as f64));
                (sampled_distinct(v, |x| x), min, max)
            }
            Some(ColumnData::Int(v)) => {
                let (min, max) = min_max(v.iter().map(|&x| x as f64));
                (sampled_distinct(v, |x| x), min, max)
            }
            Some(ColumnData::Dbl(v)) => {
                let (min, max) = min_max(v.iter().copied());
                // Keyed by bit pattern, matching Atom total-order equality.
                (sampled_distinct(v, f64::to_bits), min, max)
            }
            // The dictionary length is the exact distinct count, free.
            Some(ColumnData::Str(s)) => (s.dict_len(), None, None),
            Some(ColumnData::Bit(v)) => {
                let mut seen = HashSet::new();
                for &b in v.iter().take(SKETCH_SAMPLE) {
                    seen.insert(b);
                }
                (seen.len(), None, None)
            }
        };
        BatSketch {
            rows,
            head_void: bat.head().void_run().is_some(),
            tail_distinct,
            tail_min,
            tail_max,
        }
    }

    /// Estimated fraction of rows an equality selection keeps.
    pub fn eq_selectivity(&self) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        1.0 / self.tail_distinct.max(1) as f64
    }

    /// Estimated fraction of rows an inclusive range selection keeps,
    /// from the span the probe covers of the sketched [min, max].
    /// Returns 0.5 (the uninformed default) when bounds are unknown.
    pub fn range_selectivity(&self, lo: &Atom, hi: &Atom) -> f64 {
        let (Some(min), Some(max)) = (self.tail_min, self.tail_max) else {
            return 0.5;
        };
        let (Some(lo), Some(hi)) = (atom_as_f64(lo), atom_as_f64(hi)) else {
            return 0.5;
        };
        if self.rows == 0 || lo > hi || hi < min || lo > max {
            return 0.0;
        }
        let span = max - min;
        if span <= 0.0 {
            return 1.0; // single-valued column fully inside the probe
        }
        ((hi.min(max) - lo.max(min)) / span).clamp(0.0, 1.0)
    }
}

/// Widens a numeric atom to f64 for range estimation.
fn atom_as_f64(a: &Atom) -> Option<f64> {
    match a {
        Atom::Int(v) => Some(*v as f64),
        Atom::Dbl(v) => Some(*v),
        Atom::Oid(v) => Some(*v as f64),
        _ => None,
    }
}

/// The measured statistics a planning pass runs against: per-opcode
/// costs, morsel throughput, and per-collection sketches. `PlanStats::default()` is the cold system — everything
/// unmeasured — under which the planner must degrade to the fixed
/// rewrite's behaviour.
#[derive(Debug, Clone, Default)]
pub struct PlanStats {
    /// Measured nanoseconds per input row per MIL opcode
    /// (`mil.op_ns{op}.sum / mil.op_rows{op}.sum`); absent = unmeasured.
    pub op_ns_per_row: HashMap<String, f64>,
    /// Measured ns/row of sequential operator runs; `None` when unmeasured.
    pub seq_ns_per_row: Option<f64>,
    /// Measured ns/row of parallel operator runs; `None` when unmeasured.
    pub par_ns_per_row: Option<f64>,
    /// Tail sketches keyed by catalog BAT name.
    pub sketches: HashMap<String, Arc<BatSketch>>,
}

impl PlanStats {
    /// The sketch for collection `name`, if one was gathered.
    pub fn sketch(&self, name: &str) -> Option<&BatSketch> {
        self.sketches.get(name).map(Arc::as_ref)
    }

    /// Measured ns/row for `op`, when available.
    pub fn op_cost(&self, op: &str) -> Option<f64> {
        self.op_ns_per_row.get(op).copied()
    }

    /// True when parallel runs are measured to beat sequential ones on
    /// a per-row basis. Unmeasured (either side) is `false`: parallelism
    /// is only chosen when it has been observed to win.
    pub fn parallel_measured_faster(&self) -> bool {
        match (self.seq_ns_per_row, self.par_ns_per_row) {
            (Some(seq), Some(par)) => par < seq,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::AtomType;

    #[test]
    fn string_tail_distinct_is_exact_via_dictionary() {
        let b = Bat::from_tail(
            AtomType::Str,
            ["a", "b", "a", "c", "a", "b"].into_iter().map(Atom::str),
        )
        .unwrap();
        let s = BatSketch::build(&b);
        assert_eq!(s.rows, 6);
        assert!(s.head_void && !BatSketch::build(&b.reverse()).head_void);
        assert_eq!(s.tail_distinct, 3);
        assert!((s.eq_selectivity() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.tail_min, None);
    }

    #[test]
    fn small_int_tail_is_exact_with_bounds() {
        let b = Bat::from_tail(AtomType::Int, [5, 1, 5, 9, 1].map(Atom::Int)).unwrap();
        let s = BatSketch::build(&b);
        assert_eq!(s.tail_distinct, 3);
        assert_eq!(s.tail_min, Some(1.0));
        assert_eq!(s.tail_max, Some(9.0));
        // [1, 5] covers half of [1, 9].
        let sel = s.range_selectivity(&Atom::Int(1), &Atom::Int(5));
        assert!((sel - 0.5).abs() < 1e-12, "{sel}");
        // Disjoint probes keep nothing.
        assert_eq!(s.range_selectivity(&Atom::Int(20), &Atom::Int(30)), 0.0);
    }

    #[test]
    fn large_key_column_estimates_near_row_count() {
        let n = 100_000i64;
        let b = Bat::from_tail(AtomType::Int, (0..n).map(Atom::Int)).unwrap();
        let s = BatSketch::build(&b);
        // All sampled values are singletons, so the jackknife scales the
        // estimate to the full row count.
        assert!(
            s.tail_distinct > n as usize / 2,
            "distinct {} of {n}",
            s.tail_distinct
        );
        assert_eq!(s.tail_min, Some(0.0));
        assert_eq!(s.tail_max, Some((n - 1) as f64));
    }

    #[test]
    fn large_low_cardinality_column_stays_small() {
        let b = Bat::from_tail(AtomType::Int, (0..100_000).map(|i| Atom::Int(i % 7))).unwrap();
        let s = BatSketch::build(&b);
        assert!(s.tail_distinct <= 14, "distinct {}", s.tail_distinct);
    }

    #[test]
    fn void_tail_is_a_dense_key() {
        // A mirror's tail is the dense void head run.
        let v = Bat::from_tail(AtomType::Int, (0..10).map(Atom::Int)).unwrap();
        let m = v.mirror();
        let s = BatSketch::build(&m);
        assert_eq!(s.rows, 10);
        assert_eq!(s.tail_distinct, 10);
        assert_eq!(s.tail_min, Some(0.0));
        assert_eq!(s.tail_max, Some(9.0));
    }

    #[test]
    fn nan_tails_do_not_poison_bounds() {
        let b = Bat::from_tail(AtomType::Dbl, [1.0, f64::NAN, 3.0].map(Atom::Dbl)).unwrap();
        let s = BatSketch::build(&b);
        assert_eq!(s.tail_min, Some(1.0));
        assert_eq!(s.tail_max, Some(3.0));
    }

    #[test]
    fn empty_bat_sketch_is_zeroed() {
        let b = Bat::new(AtomType::Void, AtomType::Int);
        let s = BatSketch::build(&b);
        assert_eq!(s.rows, 0);
        assert_eq!(s.eq_selectivity(), 0.0);
    }

    #[test]
    fn cold_plan_stats_choose_no_parallelism() {
        let stats = PlanStats::default();
        assert!(!stats.parallel_measured_faster());
        assert!(stats.op_cost("select").is_none());
    }
}
