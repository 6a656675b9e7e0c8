//! The cost-based Moa → MIL planner.
//!
//! The fixed rewrite in [`crate::compile::optimize`] gives every query
//! the same shape regardless of the data; this module sits between that
//! rewrite and MIL emission and picks among *result-identical* plan
//! variants using measured statistics ([`f1_monet::PlanStats`]): per
//! opcode ns/row from the `mil.op_ns`/`mil.op_rows` histograms,
//! head-index cache hit rates, sequential vs parallel morsel
//! throughput, and per-BAT tail sketches.
//!
//! Only rewrites proven byte-identical are enumerated:
//!
//! * **Predicate reordering** — stacked selections commute exactly: each
//!   `select` keeps qualifying rows in input order, so any predicate
//!   order yields the same rows in the same order.
//! * **Join reassociation** — the kernel's join emits probe-major output
//!   with build positions in ascending order, so `(A⋈B)⋈C` and
//!   `A⋈(B⋈C)` both enumerate matches in lexicographic `(i, j, k)`
//!   order over the same match set.
//! * **`threadcnt` sizing** — morsel-parallel operators are
//!   order-preserving (per-morsel results concatenate in range order),
//!   so the thread count never changes bytes, only wall time.
//! * **Conjunction order** — a [`MoaExpr::Conjunction`] over aligned,
//!   void-headed field collections may start from any of its terms:
//!   select on that term's field, then fetch every further term's field
//!   at the surviving oids and select on it. Each step keeps a subset
//!   of its input's oids in input order, and the first selection runs
//!   over dense ascending oids, so every order yields exactly the oids
//!   at which all terms hold, ascending; the closing `mirror` pairs
//!   each with itself, which makes the orders byte-identical whatever
//!   field the last step read. (Semijoining the terms' selections is
//!   result-identical too but not enumerated: it scans every term's
//!   field in full, so it can only win by estimation noise, and each
//!   evaluation would leave a hash index of a temporary in the kernel's
//!   index cache.)
//!
//! Extension calls are opaque (possibly stateful) and are never
//! reordered, re-associated, or descended into. When nothing is
//! measured the coster falls back to fixed default constants, keeping
//! planning deterministic on a cold system.

use f1_monet::ops::MIN_PAR_ROWS_PER_THREAD;
use f1_monet::sketch::{BatSketch, PlanStats};

use crate::compile::{compile, fetch_chain, optimize};
use crate::expr::{MoaExpr, Predicate};

/// Upper bound on scored candidates per query, against pathological
/// join-chain × select-stack blowup.
const MAX_CANDIDATES: usize = 64;
/// Select stacks longer than this are not fully permuted; only the
/// identity and the selectivity-sorted orders are scored.
const MAX_PERMUTED_PREDS: usize = 4;
/// Join chains longer than this keep their written association.
const MAX_ASSOC_LEAVES: usize = 5;

/// Default cardinality of a collection with no sketch.
const DEFAULT_ROWS: f64 = 1024.0;
/// Default selectivity of an equality predicate with no sketch.
const DEFAULT_EQ_SEL: f64 = 0.1;
/// Default selectivity of a range predicate with no sketch.
const DEFAULT_RANGE_SEL: f64 = 0.5;
/// Default fraction of left rows a semijoin keeps.
const DEFAULT_SEMI_SEL: f64 = 0.5;
/// Estimated ns/row of building a hash index over the join build side.
const INDEX_BUILD_NS_PER_ROW: f64 = 12.0;
/// Fixed overhead charged per extension-procedure call, ns.
const EXTENSION_CALL_NS: f64 = 1000.0;

/// Fallback ns/row for an opcode nothing has measured yet. The relative
/// magnitudes matter (join > select > mirror), not the absolute ones.
fn default_ns_per_row(op: &str) -> f64 {
    match op {
        "join" => 10.0,
        "semijoin" | "diff" => 8.0,
        "select" => 2.5,
        "mirror" | "reverse" | "mark" => 0.5,
        "sum" | "avg" | "min" | "max" | "count" => 1.0,
        _ => 4.0,
    }
}

/// Planner knobs supplied by the session layer.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Upper bound for the chosen `threadcnt` (1 disables parallelism).
    pub max_threads: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig { max_threads: 8 }
    }
}

/// One plan operator with its cost estimate, for `EXPLAIN`.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    /// Operator label (e.g. `select`, `join`, `collection:v.ev.kind`).
    pub op: String,
    /// Estimated output rows.
    pub est_rows: f64,
    /// Estimated cost of this operator alone, nanoseconds.
    pub est_ns: f64,
}

/// The planner's verdict: the fixed-rewrite baseline, the chosen
/// variant, both cost estimates, and the `threadcnt` decision.
#[derive(Debug, Clone)]
pub struct PlanChoice {
    /// The fixed-rewrite (rule-based) plan.
    pub baseline: MoaExpr,
    /// The cheapest enumerated variant (== `baseline` when nothing beat it).
    pub chosen: MoaExpr,
    /// Estimated cost of the baseline, ns.
    pub baseline_cost: f64,
    /// Estimated cost of the chosen plan, ns.
    pub chosen_cost: f64,
    /// Per-node estimates of the baseline plan, in execution order.
    pub baseline_nodes: Vec<PlanNode>,
    /// Per-node estimates of the chosen plan, in execution order.
    pub chosen_nodes: Vec<PlanNode>,
    /// Chosen worker count (1 = sequential).
    pub threads: usize,
    /// Number of candidate plans scored.
    pub candidates: usize,
    /// One-line human rationale for the decision.
    pub rationale: String,
}

impl PlanChoice {
    /// The chosen plan rendered to a MIL expression.
    pub fn mil(&self) -> String {
        compile(&self.chosen)
    }

    /// The `threadcnt` statement prefixing every emitted program, empty
    /// when the planner stayed sequential.
    pub fn mil_prefix(&self) -> String {
        if self.threads > 1 {
            format!("threadcnt({}); ", self.threads)
        } else {
            String::new()
        }
    }

    /// True when the coster changed the plan shape.
    pub fn reordered(&self) -> bool {
        self.chosen != self.baseline
    }

    /// Compact `op=… rows=… ns=…` rendering of a node list.
    pub fn render_nodes(nodes: &[PlanNode]) -> String {
        nodes
            .iter()
            .map(|n| format!("{}[rows={:.0} ns={:.0}]", n.op, n.est_rows, n.est_ns))
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

/// A costed sub-plan.
struct Est {
    /// Estimated output rows.
    rows: f64,
    /// Total estimated cost, ns.
    cost: f64,
    /// Largest input fed to any vectorized operator (drives threadcnt).
    max_op_input: f64,
    /// Per-node detail, execution order.
    nodes: Vec<PlanNode>,
}

/// Estimated keep-fraction of `pred` against `sketch`.
fn selectivity(pred: &Predicate, sketch: Option<&BatSketch>) -> f64 {
    match (pred, sketch) {
        (Predicate::Eq(_), Some(s)) => s.eq_selectivity(),
        (Predicate::Eq(_), None) => DEFAULT_EQ_SEL,
        (Predicate::Range(lo, hi), Some(s)) => s.range_selectivity(lo, hi),
        (Predicate::Range(_, _), None) => DEFAULT_RANGE_SEL,
    }
}

/// Measured ns/row for `op`, falling back to the static default.
fn op_cost(stats: &PlanStats, op: &str) -> f64 {
    stats.op_cost(op).unwrap_or_else(|| default_ns_per_row(op))
}

/// Bottom-up cardinality/cost estimation of one candidate plan.
fn estimate(expr: &MoaExpr, stats: &PlanStats) -> Est {
    match expr {
        MoaExpr::Collection(name) => {
            let rows = stats.sketch(name).map_or(DEFAULT_ROWS, |s| s.rows as f64);
            Est {
                rows,
                cost: 0.0,
                max_op_input: 0.0,
                nodes: vec![PlanNode {
                    op: format!("collection:{name}"),
                    est_rows: rows,
                    est_ns: 0.0,
                }],
            }
        }
        MoaExpr::Literal(_) => Est {
            rows: 1.0,
            cost: 0.0,
            max_op_input: 0.0,
            nodes: Vec::new(),
        },
        MoaExpr::Select { input, pred } => {
            let mut in_est = estimate(input, stats);
            let sel = selectivity(pred, input.tail_origin().and_then(|n| stats.sketch(n)));
            let ns = in_est.rows * op_cost(stats, "select");
            let rows = in_est.rows * sel;
            in_est.nodes.push(PlanNode {
                op: "select".into(),
                est_rows: rows,
                est_ns: ns,
            });
            Est {
                rows,
                cost: in_est.cost + ns,
                max_op_input: in_est.max_op_input.max(in_est.rows),
                nodes: in_est.nodes,
            }
        }
        MoaExpr::Join { left, right } => {
            let l = estimate(left, stats);
            let mut r = estimate(right, stats);
            // The right side is the build side: an index over its head is
            // reused from the kernel cache at the measured hit rate and
            // built otherwise — unless the head is void, which the kernel
            // probes by position without any index.
            let positional = matches!(&**right, MoaExpr::Collection(name)
                if stats.sketch(name).is_some_and(|s| s.head_void));
            let miss_rate = 1.0 - stats.index_hit_rate.unwrap_or(0.0);
            let build_ns = if positional {
                0.0
            } else {
                r.rows * INDEX_BUILD_NS_PER_ROW * miss_rate
            };
            let probe_ns = l.rows * op_cost(stats, "join");
            // FK-style containment assumption: every probe row matches
            // about once against a keyed build side.
            let rows = l.rows;
            let mut nodes = l.nodes;
            nodes.append(&mut r.nodes);
            nodes.push(PlanNode {
                op: "join".into(),
                est_rows: rows,
                est_ns: probe_ns + build_ns,
            });
            Est {
                rows,
                cost: l.cost + r.cost + probe_ns + build_ns,
                max_op_input: l.max_op_input.max(r.max_op_input).max(l.rows),
                nodes,
            }
        }
        MoaExpr::Semijoin { left, right } => {
            let l = estimate(left, stats);
            let mut r = estimate(right, stats);
            let miss_rate = 1.0 - stats.index_hit_rate.unwrap_or(0.0);
            let build_ns = r.rows * INDEX_BUILD_NS_PER_ROW * miss_rate;
            let probe_ns = l.rows * op_cost(stats, "semijoin");
            let rows = l.rows * DEFAULT_SEMI_SEL;
            let mut nodes = l.nodes;
            nodes.append(&mut r.nodes);
            nodes.push(PlanNode {
                op: "semijoin".into(),
                est_rows: rows,
                est_ns: probe_ns + build_ns,
            });
            Est {
                rows,
                cost: l.cost + r.cost + probe_ns + build_ns,
                max_op_input: l.max_op_input.max(r.max_op_input).max(l.rows),
                nodes,
            }
        }
        MoaExpr::Mirror { input } => {
            let mut in_est = estimate(input, stats);
            let ns = in_est.rows * op_cost(stats, "mirror");
            in_est.nodes.push(PlanNode {
                op: "mirror".into(),
                est_rows: in_est.rows,
                est_ns: ns,
            });
            in_est.cost += ns;
            in_est
        }
        // Costed as what it compiles to: the written-order fetch chain.
        MoaExpr::Conjunction { terms } => estimate(&fetch_chain(terms), stats),
        MoaExpr::Aggregate { input, kind } => {
            let mut in_est = estimate(input, stats);
            let op = format!("{kind:?}").to_lowercase();
            let ns = in_est.rows * op_cost(stats, &op);
            in_est.nodes.push(PlanNode {
                op,
                est_rows: 1.0,
                est_ns: ns,
            });
            Est {
                rows: 1.0,
                cost: in_est.cost + ns,
                max_op_input: in_est.max_op_input.max(in_est.rows),
                nodes: in_est.nodes,
            }
        }
        MoaExpr::ExtensionCall { name, args } => {
            let mut cost = EXTENSION_CALL_NS;
            let mut rows = 1.0f64;
            let mut max_op_input = 0.0f64;
            let mut nodes = Vec::new();
            for a in args {
                let mut est = estimate(a, stats);
                cost += est.cost;
                rows = rows.max(est.rows);
                max_op_input = max_op_input.max(est.max_op_input);
                nodes.append(&mut est.nodes);
            }
            nodes.push(PlanNode {
                op: format!("call:{name}"),
                est_rows: rows,
                est_ns: EXTENSION_CALL_NS,
            });
            Est {
                rows,
                cost,
                max_op_input,
                nodes,
            }
        }
    }
}

/// All permutations of `0..n` for tiny `n`.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current: Vec<usize> = Vec::with_capacity(n);
    let mut used = vec![false; n];
    fn rec(n: usize, current: &mut Vec<usize>, used: &mut [bool], out: &mut Vec<Vec<usize>>) {
        if current.len() == n {
            out.push(current.clone());
            return;
        }
        for i in 0..n {
            if !used[i] {
                used[i] = true;
                current.push(i);
                rec(n, current, used, out);
                current.pop();
                used[i] = false;
            }
        }
    }
    rec(n, &mut current, &mut used, &mut out);
    out
}

/// Peels a stack of selections: `(base, predicates innermost-first)`.
fn peel_selects(expr: &MoaExpr) -> (&MoaExpr, Vec<&Predicate>) {
    match expr {
        MoaExpr::Select { input, pred } => {
            let (base, mut preds) = peel_selects(input);
            preds.push(pred);
            (base, preds)
        }
        other => (other, Vec::new()),
    }
}

/// Rebuilds a select stack applying `preds` innermost-first.
fn stack_selects(base: MoaExpr, preds: &[&Predicate]) -> MoaExpr {
    preds.iter().fold(base, |acc, &p| acc.select(p.clone()))
}

/// Flattens a pure `Join` spine into its leaves, left to right.
/// Returns `None` when the spine is shorter than two joins (nothing to
/// re-associate).
fn join_leaves(expr: &MoaExpr) -> Option<Vec<&MoaExpr>> {
    fn collect<'e>(expr: &'e MoaExpr, out: &mut Vec<&'e MoaExpr>) {
        match expr {
            MoaExpr::Join { left, right } => {
                collect(left, out);
                collect(right, out);
            }
            other => out.push(other),
        }
    }
    let mut leaves = Vec::new();
    collect(expr, &mut leaves);
    (leaves.len() >= 3).then_some(leaves)
}

/// All order-preserving binary join trees over `leaves[lo..hi]`.
fn associations(leaves: &[MoaExpr], lo: usize, hi: usize) -> Vec<MoaExpr> {
    if hi - lo == 1 {
        return vec![leaves[lo].clone()];
    }
    let mut out = Vec::new();
    for split in lo + 1..hi {
        for l in associations(leaves, lo, split) {
            for r in associations(leaves, split, hi) {
                out.push(l.clone().join(r));
            }
        }
    }
    out
}

/// Enumerates result-identical variants of `expr` (always including
/// `expr` itself first), bounded by [`MAX_CANDIDATES`].
fn enumerate(expr: &MoaExpr, stats: &PlanStats) -> Vec<MoaExpr> {
    let mut out = enumerate_inner(expr, stats);
    out.truncate(MAX_CANDIDATES);
    out
}

fn enumerate_inner(expr: &MoaExpr, stats: &PlanStats) -> Vec<MoaExpr> {
    match expr {
        MoaExpr::Select { .. } => {
            let (base, preds) = peel_selects(expr);
            let bases = enumerate_inner(base, stats);
            let orders: Vec<Vec<usize>> = if preds.len() <= 1 {
                vec![(0..preds.len()).collect()]
            } else if preds.len() <= MAX_PERMUTED_PREDS {
                permutations(preds.len())
            } else {
                // Too many to permute: identity plus selectivity-sorted.
                let sketch = base.tail_origin().and_then(|n| stats.sketch(n));
                let mut sorted: Vec<usize> = (0..preds.len()).collect();
                sorted.sort_by(|&a, &b| {
                    selectivity(preds[a], sketch)
                        .partial_cmp(&selectivity(preds[b], sketch))
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                vec![(0..preds.len()).collect(), sorted]
            };
            let mut out = Vec::new();
            for b in &bases {
                for order in &orders {
                    let ordered: Vec<&Predicate> = order.iter().map(|&i| preds[i]).collect();
                    let cand = stack_selects(b.clone(), &ordered);
                    if !out.contains(&cand) {
                        out.push(cand);
                    }
                    if out.len() >= MAX_CANDIDATES {
                        return out;
                    }
                }
            }
            out
        }
        MoaExpr::Join { left, right } => {
            if let Some(leaves) = join_leaves(expr) {
                if leaves.len() <= MAX_ASSOC_LEAVES {
                    // Fix each leaf at its cheapest variant (leaf costs are
                    // additive, so the greedy choice is optimal), then
                    // score every association of the spine.
                    let best_leaves: Vec<MoaExpr> = leaves
                        .iter()
                        .map(|leaf| cheapest(enumerate_inner(leaf, stats), stats))
                        .collect();
                    let mut out = vec![expr.clone()];
                    for cand in associations(&best_leaves, 0, best_leaves.len()) {
                        if !out.contains(&cand) {
                            out.push(cand);
                        }
                        if out.len() >= MAX_CANDIDATES {
                            break;
                        }
                    }
                    return out;
                }
            }
            cross(
                enumerate_inner(left, stats),
                enumerate_inner(right, stats),
                |l, r| l.join(r),
            )
        }
        MoaExpr::Semijoin { left, right } => cross(
            enumerate_inner(left, stats),
            enumerate_inner(right, stats),
            |l, r| l.semijoin(r),
        ),
        MoaExpr::Mirror { input } => enumerate_inner(input, stats)
            .into_iter()
            .map(MoaExpr::mirror)
            .collect(),
        // Every order of the terms; the first permutation is the
        // written order, the expression itself.
        MoaExpr::Conjunction { terms } if terms.len() <= MAX_PERMUTED_PREDS => {
            permutations(terms.len())
                .into_iter()
                .map(|order| {
                    MoaExpr::conjunction(order.iter().map(|&i| terms[i].clone()).collect())
                })
                .collect()
        }
        MoaExpr::Aggregate { input, kind } => enumerate_inner(input, stats)
            .into_iter()
            .map(|i| i.aggregate(*kind))
            .collect(),
        // Extension calls may be stateful: opaque, never rewritten.
        other => vec![other.clone()],
    }
}

/// Cross product of two variant sets under `combine`, capped.
fn cross(
    ls: Vec<MoaExpr>,
    rs: Vec<MoaExpr>,
    combine: impl Fn(MoaExpr, MoaExpr) -> MoaExpr,
) -> Vec<MoaExpr> {
    let mut out = Vec::new();
    for l in &ls {
        for r in &rs {
            out.push(combine(l.clone(), r.clone()));
            if out.len() >= MAX_CANDIDATES {
                return out;
            }
        }
    }
    out
}

/// The cheapest of `variants` (first wins ties, so the written order is
/// stable under an uninformed coster).
fn cheapest(variants: Vec<MoaExpr>, stats: &PlanStats) -> MoaExpr {
    let mut best_cost = f64::INFINITY;
    let mut best = None;
    for v in variants {
        let cost = estimate(&v, stats).cost;
        if cost + 1e-9 < best_cost {
            best_cost = cost;
            best = Some(v);
        }
    }
    best.unwrap_or(MoaExpr::Literal(f1_monet::Atom::Int(0)))
}

/// Picks the largest power-of-two worker count that both clears the
/// morsel executor's per-thread row floor at `max_op_input` rows and is
/// measured to win; parallelism is never chosen on estimates alone.
fn choose_threads(max_op_input: f64, stats: &PlanStats, cfg: &PlannerConfig) -> usize {
    if cfg.max_threads <= 1 || !stats.parallel_measured_faster() {
        return 1;
    }
    let mut chosen = 1;
    let mut cand = 2usize;
    while cand <= cfg.max_threads && max_op_input >= (cand * MIN_PAR_ROWS_PER_THREAD) as f64 {
        chosen = cand;
        cand *= 2;
    }
    chosen
}

/// Plans `expr`: applies the fixed rewrite, enumerates result-identical
/// variants, scores them against `stats`, and returns the cheapest with
/// a before/after account suitable for `EXPLAIN`.
pub fn plan(expr: MoaExpr, stats: &PlanStats, cfg: &PlannerConfig) -> PlanChoice {
    let baseline = optimize(expr);
    let base_est = estimate(&baseline, stats);
    let mut chosen = baseline.clone();
    let mut chosen_est = estimate(&baseline, stats);
    let candidates = enumerate(&baseline, stats);
    let n_candidates = candidates.len();
    for cand in candidates {
        let est = estimate(&cand, stats);
        if est.cost + 1e-9 < chosen_est.cost {
            chosen = cand;
            chosen_est = est;
        }
    }
    let threads = choose_threads(chosen_est.max_op_input, stats, cfg);
    let reordered = chosen != baseline;
    let rationale = format!(
        "{}; scored {n_candidates} candidate(s); threadcnt={threads} ({})",
        if reordered {
            "chose a cheaper variant over the rule-based plan"
        } else {
            "kept the rule-based plan"
        },
        if threads > 1 {
            "parallel measured faster and input clears the morsel floor"
        } else if stats.parallel_measured_faster() {
            "input below the morsel floor"
        } else {
            "parallel not measured to win"
        },
    );
    PlanChoice {
        baseline,
        chosen,
        baseline_cost: base_est.cost,
        chosen_cost: chosen_est.cost,
        baseline_nodes: base_est.nodes,
        chosen_nodes: chosen_est.nodes,
        threads,
        candidates: n_candidates,
        rationale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f1_monet::Atom;
    use std::sync::Arc;

    fn stats_with(name: &str, sketch: BatSketch) -> PlanStats {
        let mut stats = PlanStats::default();
        stats.sketches.insert(name.to_string(), Arc::new(sketch));
        stats
    }

    fn keyed_sketch(rows: usize, distinct: usize) -> BatSketch {
        BatSketch {
            rows,
            head_void: false,
            tail_distinct: distinct,
            tail_min: Some(0.0),
            tail_max: Some(rows as f64),
        }
    }

    #[test]
    fn selective_predicate_moves_first() {
        // Written order: wide range first, rare equality last. The
        // coster must flip them so the cheap filter shrinks the input
        // of the expensive one.
        let expr = MoaExpr::collection("ev")
            .select(Predicate::Range(Atom::Int(0), Atom::Int(90_000)))
            .select(Predicate::Eq(Atom::Int(7)));
        let stats = stats_with("ev", keyed_sketch(100_000, 50_000));
        let choice = plan(expr, &stats, &PlannerConfig::default());
        assert!(choice.reordered(), "{}", choice.rationale);
        assert!(choice.chosen_cost < choice.baseline_cost);
        // The chosen plan applies Eq innermost (first).
        let (_, preds) = peel_selects(&choice.chosen);
        assert!(matches!(preds[0], Predicate::Eq(_)), "{:?}", choice.chosen);
        assert!(
            choice.mil().starts_with("((bat(\"ev\")).select(7))"),
            "{}",
            choice.mil()
        );
    }

    #[test]
    fn already_optimal_order_is_kept() {
        let expr = MoaExpr::collection("ev")
            .select(Predicate::Eq(Atom::Int(7)))
            .select(Predicate::Range(Atom::Int(0), Atom::Int(90_000)));
        let stats = stats_with("ev", keyed_sketch(100_000, 50_000));
        let choice = plan(expr, &stats, &PlannerConfig::default());
        assert!(!choice.reordered(), "{}", choice.rationale);
        assert_eq!(choice.baseline, choice.chosen);
    }

    #[test]
    fn join_reassociation_prefers_small_build_sides() {
        // A ⋈ B ⋈ C with a huge B: (A⋈B)⋈C probes A's rows into B and
        // the result into C; A⋈(B⋈C) must first build/probe the huge
        // B⋈C. Left-deep should win when A is small.
        let mut stats = stats_with("a", keyed_sketch(100, 100));
        stats
            .sketches
            .insert("b".into(), Arc::new(keyed_sketch(1_000_000, 1_000_000)));
        stats
            .sketches
            .insert("c".into(), Arc::new(keyed_sketch(1_000, 1_000)));
        let right_deep =
            MoaExpr::collection("a").join(MoaExpr::collection("b").join(MoaExpr::collection("c")));
        let choice = plan(right_deep, &stats, &PlannerConfig::default());
        assert!(choice.reordered(), "{}", choice.rationale);
        match &choice.chosen {
            MoaExpr::Join { left, right } => {
                assert!(
                    matches!(**left, MoaExpr::Join { .. }),
                    "{:?}",
                    choice.chosen
                );
                assert!(matches!(**right, MoaExpr::Collection(_)));
            }
            other => panic!("expected join, got {other:?}"),
        }
    }

    /// The event tuple of a race-length video: few kinds, many drivers.
    fn event_tuple_stats(rows: usize, kinds: usize, drivers: usize) -> PlanStats {
        let field = |distinct| {
            Arc::new(BatSketch {
                head_void: true,
                ..keyed_sketch(rows, distinct)
            })
        };
        let mut stats = PlanStats::default();
        stats.sketches.insert("ev.kind".into(), field(kinds));
        stats.sketches.insert("ev.driver".into(), field(drivers));
        stats
    }

    fn kind_and_driver() -> MoaExpr {
        MoaExpr::conjunction(vec![
            ("ev.kind".into(), Predicate::Eq(Atom::str("highlight"))),
            ("ev.driver".into(), Predicate::Eq(Atom::str("D17"))),
        ])
    }

    #[test]
    fn conjunction_starts_from_its_most_selective_field() {
        let stats = event_tuple_stats(18_000, 3, 4_096);
        let choice = plan(kind_and_driver(), &stats, &PlannerConfig::default());
        assert!(choice.reordered(), "{}", choice.rationale);
        assert_eq!(choice.baseline_nodes[0].op, "collection:ev.kind");
        assert_eq!(choice.chosen_nodes[0].op, "collection:ev.driver");
        assert!(choice.chosen_cost < choice.baseline_cost);
        // One scan, then work on the handful of rows it kept: fetching
        // the other field by position builds no index.
        assert_eq!(
            choice.mil(),
            "(((((bat(\"ev.driver\")).select(\"D17\")).mirror).join(bat(\"ev.kind\"))).select(\"highlight\")).mirror"
        );
        let scan = 18_000.0 * default_ns_per_row("select");
        assert!(choice.chosen_cost < scan * 1.01, "{}", choice.chosen_cost);

        // Many kinds, two drivers: the written order is already best.
        let stats = event_tuple_stats(18_000, 50, 2);
        let choice = plan(kind_and_driver(), &stats, &PlannerConfig::default());
        assert!(!choice.reordered(), "{}", choice.rationale);
        assert_eq!(choice.chosen_nodes[0].op, "collection:ev.kind");
        assert_eq!(choice.mil(), compile(&kind_and_driver()));
    }

    #[test]
    fn a_single_term_conjunction_has_nothing_to_reorder() {
        let stats = event_tuple_stats(18_000, 3, 4_096);
        let one = MoaExpr::conjunction(vec![(
            "ev.kind".into(),
            Predicate::Eq(Atom::str("highlight")),
        )]);
        let choice = plan(one, &stats, &PlannerConfig::default());
        assert!(!choice.reordered());
        assert_eq!(
            choice.mil(),
            "((bat(\"ev.kind\")).select(\"highlight\")).mirror"
        );
    }

    proptest::proptest! {
        /// Every order the planner may pick for a conjunction is
        /// byte-identical to the written one, and keeps exactly the rows
        /// where all terms hold.
        #[test]
        fn every_conjunction_variant_selects_the_same_rows(
            rows in proptest::collection::vec((0usize..3, 0usize..4, 0i64..6), 0..40),
            wanted in (0usize..3, 0usize..4, 0i64..6),
            n_terms in 1usize..4,
        ) {
            use f1_monet::prelude::*;
            use proptest::prelude::*;
            let word = |i: usize| Atom::str(["a", "b", "", "d"][i]);
            let kernel = Kernel::new();
            let column = |ty, values: Vec<Atom>| Bat::from_tail(ty, values).expect("typed column");
            kernel.set_bat("t.kind", column(AtomType::Str, rows.iter().map(|r| word(r.0)).collect()));
            kernel.set_bat("t.driver", column(AtomType::Str, rows.iter().map(|r| word(r.1)).collect()));
            kernel.set_bat("t.start", column(AtomType::Int, rows.iter().map(|r| Atom::Int(r.2)).collect()));
            let terms = [
                ("t.kind".to_string(), Predicate::Eq(word(wanted.0))),
                ("t.driver".to_string(), Predicate::Eq(word(wanted.1))),
                ("t.start".to_string(), Predicate::Range(Atom::Int(wanted.2), Atom::Int(wanted.2 + 2))),
            ];
            let holds = |r: &(usize, usize, i64)| {
                [r.0 == wanted.0, r.1 == wanted.1, (wanted.2..=wanted.2 + 2).contains(&r.2)][..n_terms]
                    .iter()
                    .all(|&term| term)
            };
            let expected: Vec<Atom> = rows
                .iter()
                .enumerate()
                .filter(|(_, r)| holds(r))
                .map(|(i, _)| Atom::Oid(i as u64))
                .collect();

            let conjunction = MoaExpr::conjunction(terms[..n_terms].to_vec());
            let variants = enumerate(&conjunction, &kernel.plan_stats(&["t.kind", "t.driver", "t.start"]));
            // n! orders, the written one first.
            prop_assert_eq!(variants.len(), [1, 2, 6][n_terms - 1]);
            prop_assert_eq!(&variants[0], &conjunction);
            let written = kernel
                .eval_mil(&format!("RETURN {};", compile(&variants[0])))
                .expect("the written order evaluates");
            let kept = written.bat_snapshot().expect("a BAT");
            prop_assert_eq!(kept.head().to_vec(), expected.clone());
            prop_assert_eq!(kept.tail().to_vec(), expected);
            for variant in &variants[1..] {
                let mil = compile(variant);
                let got = kernel.eval_mil(&format!("RETURN {mil};")).expect("a variant evaluates");
                prop_assert_eq!(&got, &written, "{}", mil);
            }
        }
    }

    #[test]
    fn parallelism_requires_measurement_and_rows() {
        let big = stats_with("ev", keyed_sketch(1_000_000, 1_000));
        let expr = MoaExpr::collection("ev").select(Predicate::Eq(Atom::Int(1)));
        // Unmeasured: stays sequential no matter the size.
        let choice = plan(expr.clone(), &big, &PlannerConfig::default());
        assert_eq!(choice.threads, 1);

        // Measured to win: scales with the input.
        let mut measured = stats_with("ev", keyed_sketch(1_000_000, 1_000));
        measured.seq_ns_per_row = Some(2.0);
        measured.par_ns_per_row = Some(1.0);
        let choice = plan(expr.clone(), &measured, &PlannerConfig::default());
        assert!(choice.threads > 1, "{}", choice.rationale);

        // Measured to win but tiny input: the floor keeps it sequential.
        let mut small = stats_with("ev", keyed_sketch(10_000, 100));
        small.seq_ns_per_row = Some(2.0);
        small.par_ns_per_row = Some(1.0);
        let choice = plan(expr, &small, &PlannerConfig::default());
        assert_eq!(choice.threads, 1, "{}", choice.rationale);

        // Measured to *lose*: sequential even when huge.
        let mut slower = stats_with("ev", keyed_sketch(1_000_000, 1_000));
        slower.seq_ns_per_row = Some(1.0);
        slower.par_ns_per_row = Some(2.0);
        let choice = plan(
            MoaExpr::collection("ev").select(Predicate::Eq(Atom::Int(1))),
            &slower,
            &PlannerConfig::default(),
        );
        assert_eq!(choice.threads, 1);
    }

    #[test]
    fn extension_calls_are_never_rewritten() {
        let expr = MoaExpr::call(
            "hmmClassify",
            vec![MoaExpr::collection("obs")
                .select(Predicate::Range(Atom::Int(0), Atom::Int(10)))
                .select(Predicate::Eq(Atom::Int(3)))],
        );
        let stats = stats_with("obs", keyed_sketch(100_000, 90_000));
        let choice = plan(expr.clone(), &stats, &PlannerConfig::default());
        assert_eq!(choice.chosen, optimize(expr));
    }

    #[test]
    fn cold_planner_is_deterministic_and_total() {
        let expr = MoaExpr::collection("ghost")
            .select(Predicate::Range(Atom::Int(0), Atom::Int(10)))
            .join(MoaExpr::collection("ghost2"))
            .aggregate(crate::expr::Aggregate::Count);
        let stats = PlanStats::default();
        let a = plan(expr.clone(), &stats, &PlannerConfig::default());
        let b = plan(expr, &stats, &PlannerConfig::default());
        assert_eq!(a.chosen, b.chosen);
        assert_eq!(a.threads, 1);
        assert!(a.chosen_cost <= a.baseline_cost);
    }

    #[test]
    fn plan_nodes_carry_estimates_for_explain() {
        let stats = stats_with("ev", keyed_sketch(1_000, 10));
        let choice = plan(
            MoaExpr::collection("ev").select(Predicate::Eq(Atom::Int(1))),
            &stats,
            &PlannerConfig::default(),
        );
        assert!(!choice.chosen_nodes.is_empty());
        let rendered = PlanChoice::render_nodes(&choice.chosen_nodes);
        assert!(rendered.contains("collection:ev"), "{rendered}");
        assert!(rendered.contains("select"), "{rendered}");
    }
}
