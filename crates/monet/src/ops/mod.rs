//! Relational operators over BATs.
//!
//! These are the algebra primitives that MIL programs (and therefore the
//! Moa logical layer) are compiled into: selections, hash joins, semijoins,
//! anti-joins, duplicate elimination, histograms, aggregation and sorting.
//! All operators are pure — they return fresh BATs and never mutate their
//! inputs, which keeps the kernel easy to parallelize.
//!
//! The implementations are **vectorized**: each operator dispatches on the
//! column type once per call, then runs tight loops over typed slices
//! ([`crate::bat::ColumnData`]), producing selection vectors of row
//! positions that a single [`Bat::gather`] turns into the output. Range
//! selection over a `Void` column is O(1) seqbase arithmetic, an equality
//! selection handed a value index over its column gathers the index's
//! positions instead of scanning (`select_eq_indexed`), and joins probe a
//! typed [`ColumnIndex`] built for the call.
//!
//! Each operator has one implementation. The scanning ones (selections
//! and the three joins) take an [`OpCtx`] that morselizes the input
//! across [`crate::parallel::run_jobs`] workers (honouring MIL's
//! `threadcnt`) and charges an [`ExecGuard`] tick per morsel so budgeted
//! evaluations stay bounded inside operators, not just between them;
//! `OpCtx::default()` runs them on the calling thread with no guard. The
//! pre-vectorization reference implementations live on, outside every
//! build of the kernel, in `tests/naive/mod.rs`, where
//! `tests/vectorized_differential.rs` holds each operator here to them at
//! several thread counts.

use std::collections::HashMap;
use std::hash::Hash;
use std::ops::Range;

use crate::bat::{Bat, Column, ColumnData};
use crate::error::{MonetError, Result};
use crate::guard::ExecGuard;
use crate::index::ColumnIndex;
use crate::metrics::KernelMetrics;
use crate::parallel;
use crate::value::{Atom, AtomType};

/// Execution context for the scanning operators: a worker count for
/// morsel-driven parallelism, an optional execution guard charged at
/// every morsel boundary, and optional metric handles recording morsel
/// utilization. Leave `metrics` unset (the default) to keep operators
/// observation-free — benchmarks measuring raw kernel speed do.
#[derive(Clone, Copy, Default)]
pub struct OpCtx<'g> {
    /// Worker threads to spread morsels over; `0`/`1` means sequential
    /// execution on the calling thread. Results are bit-identical at
    /// every count.
    pub threads: usize,
    /// Budget guard ticked once per morsel, so fuel/deadline/cancellation
    /// interrupt long scans between morsels.
    pub guard: Option<&'g ExecGuard>,
    /// Morsel-utilization counters (`kernel.morsel_*`); `None` records
    /// nothing and costs nothing on the operator hot path.
    pub metrics: Option<&'g KernelMetrics>,
}

impl<'g> OpCtx<'g> {
    /// A context using `threads` workers and no guard.
    pub fn with_threads(threads: usize) -> Self {
        OpCtx {
            threads,
            ..OpCtx::default()
        }
    }

    /// A context using `threads` workers under `guard`.
    pub fn new(threads: usize, guard: &'g ExecGuard) -> Self {
        OpCtx {
            threads,
            guard: Some(guard),
            ..OpCtx::default()
        }
    }

    fn tick(&self) -> Result<()> {
        match self.guard {
            Some(g) => g.tick(),
            None => Ok(()),
        }
    }
}

/// Morsels smaller than this are not worth a task switch.
const MIN_MORSEL_ROWS: usize = 4096;
/// Morsels handed out per worker, for load balancing.
const MORSELS_PER_THREAD: usize = 4;
/// Minimum rows *per requested worker* before a run leaves the calling
/// thread. Below this the fan-out (thread wake-ups, per-morsel result
/// merges) costs more than it saves: when the floor was set,
/// `select_range` over 100k rows measured 0.19 ms on one thread vs
/// 0.28 ms on two, so `threadcnt > 1` must never slow small BATs down.
pub const MIN_PAR_ROWS_PER_THREAD: usize = 65_536;

/// Runs `f` over morsel ranges of `0..len`, sequentially or on the
/// context's workers, returning per-morsel results in range order. The
/// guard is ticked once per morsel. Per-mode wall time and row counts
/// are recorded so the planner can compare measured sequential vs
/// parallel throughput.
fn run_morsels<T, F>(ctx: &OpCtx<'_>, len: usize, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let ranges = morsel_ranges(ctx, len);
    if ranges.len() <= 1 {
        let n_morsels = ranges.len() as u64;
        let start = std::time::Instant::now();
        let mut out = Vec::with_capacity(ranges.len());
        for r in ranges {
            ctx.tick()?;
            out.push(f(r));
        }
        if let Some(m) = ctx.metrics {
            m.morsel_runs_seq.inc();
            m.morsels.add(n_morsels);
            m.morsel_rows.add(len as u64);
            m.morsel_seq_ns.add(start.elapsed().as_nanos() as u64);
            m.morsel_seq_rows.add(len as u64);
        }
        return Ok(out);
    }
    let n_morsels = ranges.len() as u64;
    let guard = ctx.guard;
    let jobs: Vec<_> = ranges
        .into_iter()
        .map(|r| {
            let f = &f;
            move || -> Result<T> {
                if let Some(g) = guard {
                    g.tick()?;
                }
                Ok(f(r))
            }
        })
        .collect();
    let start = std::time::Instant::now();
    let out = parallel::run_jobs(ctx.threads, jobs)?.into_iter().collect();
    if let Some(m) = ctx.metrics {
        m.morsel_runs_par.inc();
        m.morsels.add(n_morsels);
        m.morsel_rows.add(len as u64);
        m.threads.set(ctx.threads as i64);
        m.morsel_par_ns.add(start.elapsed().as_nanos() as u64);
        m.morsel_par_rows.add(len as u64);
    }
    out
}

/// The morsels a run over `0..len` cuts: one on the calling thread, or
/// up to [`MORSELS_PER_THREAD`] per worker once every requested worker
/// gets [`MIN_PAR_ROWS_PER_THREAD`] rows.
fn morsel_ranges(ctx: &OpCtx<'_>, len: usize) -> Vec<Range<usize>> {
    let parts = if ctx.threads <= 1 || len < ctx.threads * MIN_PAR_ROWS_PER_THREAD {
        1
    } else {
        (ctx.threads * MORSELS_PER_THREAD).min(len.div_ceil(MIN_MORSEL_ROWS).max(1))
    };
    parallel::morsels(len, parts)
}

fn concat_positions(chunks: Vec<Vec<u32>>) -> Vec<u32> {
    let total = chunks.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for c in chunks {
        out.extend_from_slice(&c);
    }
    out
}

fn out_type(t: AtomType) -> AtomType {
    // Operators that re-arrange rows lose void density.
    if t == AtomType::Void {
        AtomType::Oid
    } else {
        t
    }
}

/// An empty BAT with the output types of an operator over `(ht, tt)`.
fn empty_out(ht: AtomType, tt: AtomType) -> Bat {
    Bat::new(out_type(ht), out_type(tt))
}

// ---------------------------------------------------------------------------
// Selections
// ---------------------------------------------------------------------------

/// Scans `range` of a typed slice, collecting positions satisfying `pred`.
fn scan_positions<T: Copy>(vals: &[T], range: Range<usize>, pred: impl Fn(T) -> bool) -> Vec<u32> {
    let mut out = Vec::new();
    for i in range {
        if pred(vals[i]) {
            out.push(i as u32);
        }
    }
    out
}

/// Positions in `range` whose value equals `v`, under full atom equality
/// (mixed int/dbl compare by widened value and bit pattern).
fn eq_positions(col: &Column, v: &Atom, range: Range<usize>) -> Vec<u32> {
    if let Some((seq, len)) = col.void_run() {
        // O(1): a void column holds each oid at most once, at a known spot.
        if let Atom::Oid(o) = v {
            if *o >= seq && ((o - seq) as usize) < len && range.contains(&((o - seq) as usize)) {
                return vec![(o - seq) as u32];
            }
        }
        return Vec::new();
    }
    let Some(data) = col.data() else {
        return Vec::new();
    };
    match (data, v) {
        (ColumnData::Oid(xs), Atom::Oid(k)) => scan_positions(xs, range, |x| x == *k),
        (ColumnData::Int(xs), Atom::Int(k)) => scan_positions(xs, range, |x| x == *k),
        (ColumnData::Int(xs), Atom::Dbl(d)) => {
            let bits = d.to_bits();
            scan_positions(xs, range, |x| (x as f64).to_bits() == bits)
        }
        (ColumnData::Dbl(xs), Atom::Dbl(d)) => {
            let bits = d.to_bits();
            scan_positions(xs, range, |x| x.to_bits() == bits)
        }
        (ColumnData::Dbl(xs), Atom::Int(k)) => {
            let bits = (*k as f64).to_bits();
            scan_positions(xs, range, |x| x.to_bits() == bits)
        }
        (ColumnData::Str(s), Atom::Str(k)) => match s.code_of(k) {
            Some(code) => scan_positions(s.codes(), range, |c| c == code),
            None => Vec::new(),
        },
        (ColumnData::Bit(xs), Atom::Bit(k)) => scan_positions(xs, range, |x| x == *k),
        // Cross-type equality is always false.
        _ => Vec::new(),
    }
}

/// How a range bound relates to every element of a column: satisfied by
/// all rows, by none, or decided per element against a typed key.
#[derive(Clone, Copy)]
enum Bound<K> {
    Always,
    Never,
    Key(K),
}

/// Which end of the inclusive range a bound sits at.
#[derive(Clone, Copy, PartialEq)]
enum Dir {
    Lo,
    Hi,
}

/// Resolves `bound` against a column of rank `col_rank` holding `K`-typed
/// values; `extract` pulls a comparable key out of same-universe atoms.
/// Cross-type bounds collapse to a constant by the atom rank order: a lo
/// bound of a lower-ranked type is satisfied by every row, of a
/// higher-ranked type by none — and symmetrically for hi bounds.
fn resolve_bound<K>(
    bound: &Atom,
    col_rank: u8,
    dir: Dir,
    extract: impl Fn(&Atom) -> Option<K>,
) -> Bound<K> {
    match extract(bound) {
        Some(k) => Bound::Key(k),
        None => {
            let bound_above = atom_rank(bound) > col_rank;
            if bound_above == (dir == Dir::Hi) {
                Bound::Always
            } else {
                Bound::Never
            }
        }
    }
}

fn atom_rank(a: &Atom) -> u8 {
    match a {
        Atom::Oid(_) => 0,
        Atom::Int(_) | Atom::Dbl(_) => 1, // numerics share a comparison universe
        Atom::Str(_) => 3,
        Atom::Bit(_) => 4,
    }
}

/// Positions in `range` whose value lies in `[lo, hi]` under atom order.
fn range_positions(col: &Column, lo: &Atom, hi: &Atom, range: Range<usize>) -> Vec<u32> {
    if let Some((seq, len)) = col.void_run() {
        // O(1): intersect the inclusive [lo, hi] oid interval with the run.
        let lo_pos = match lo {
            Atom::Oid(o) => (*o).saturating_sub(seq).min(len as u64) as usize,
            _ => return Vec::new(), // every other atom type ranks above oid
        };
        let hi_pos = match hi {
            Atom::Oid(o) if *o < seq => 0,
            Atom::Oid(o) => ((o - seq).saturating_add(1)).min(len as u64) as usize,
            _ => len, // bound above every oid
        };
        let start = lo_pos.max(range.start);
        let end = hi_pos.min(range.end);
        return (start as u32..end.max(start) as u32).collect();
    }
    let Some(data) = col.data() else {
        return Vec::new();
    };
    match data {
        ColumnData::Oid(xs) => {
            let oid = |a: &Atom| match a {
                Atom::Oid(o) => Some(*o),
                _ => None,
            };
            let ge = resolve_bound(lo, 0, Dir::Lo, oid);
            let le = resolve_bound(hi, 0, Dir::Hi, oid);
            scan_bounded(xs, range, ge, le, |x, k| x.cmp(&k))
        }
        ColumnData::Int(xs) => {
            // An int bound compares by i64, a dbl bound by widened total
            // order — both captured as a comparator on the element.
            let ge = num_bound(lo, Dir::Lo);
            let le = num_bound(hi, Dir::Hi);
            scan_bounded(xs, range, ge, le, |x, k| match k {
                NumKey::I(v) => x.cmp(&v),
                NumKey::F(d) => (x as f64).total_cmp(&d),
            })
        }
        ColumnData::Dbl(xs) => {
            let ge = num_bound(lo, Dir::Lo);
            let le = num_bound(hi, Dir::Hi);
            scan_bounded(xs, range, ge, le, |x, k| match k {
                NumKey::I(v) => x.total_cmp(&(v as f64)),
                NumKey::F(d) => x.total_cmp(&d),
            })
        }
        ColumnData::Str(s) => {
            // Compare each *dictionary entry* against the bounds once, then
            // filter rows by their code's verdict.
            let string = |a: &Atom| match a {
                Atom::Str(v) => Some(std::sync::Arc::clone(v)),
                _ => None,
            };
            let ge = resolve_bound(lo, 3, Dir::Lo, string);
            let le = resolve_bound(hi, 3, Dir::Hi, string);
            if matches!(ge, Bound::Never) || matches!(le, Bound::Never) {
                return Vec::new();
            }
            let in_range: Vec<bool> = s
                .dict()
                .iter()
                .map(|d| {
                    let ge_ok = match &ge {
                        Bound::Always => true,
                        Bound::Never => false,
                        Bound::Key(l) => d.as_ref() >= l.as_ref(),
                    };
                    let le_ok = match &le {
                        Bound::Always => true,
                        Bound::Never => false,
                        Bound::Key(h) => d.as_ref() <= h.as_ref(),
                    };
                    ge_ok && le_ok
                })
                .collect();
            scan_positions(s.codes(), range, |c| in_range[c as usize])
        }
        ColumnData::Bit(xs) => {
            let bit = |a: &Atom| match a {
                Atom::Bit(b) => Some(*b),
                _ => None,
            };
            let ge = resolve_bound(lo, 4, Dir::Lo, bit);
            let le = resolve_bound(hi, 4, Dir::Hi, bit);
            scan_bounded(xs, range, ge, le, |x, k| x.cmp(&k))
        }
    }
}

/// A numeric bound key: native i64 or total-ordered f64.
#[derive(Clone, Copy)]
enum NumKey {
    I(i64),
    F(f64),
}

fn num_bound(bound: &Atom, dir: Dir) -> Bound<NumKey> {
    resolve_bound(bound, 1, dir, |a| match a {
        Atom::Int(v) => Some(NumKey::I(*v)),
        Atom::Dbl(d) => Some(NumKey::F(*d)),
        _ => None,
    })
}

/// Scans `range`, keeping positions where `lo <= x <= hi` per `cmp`.
fn scan_bounded<T: Copy, K: Copy>(
    vals: &[T],
    range: Range<usize>,
    lo: Bound<K>,
    hi: Bound<K>,
    cmp: impl Fn(T, K) -> std::cmp::Ordering,
) -> Vec<u32> {
    use std::cmp::Ordering;
    if matches!(lo, Bound::Never) || matches!(hi, Bound::Never) {
        return Vec::new();
    }
    scan_positions(vals, range, |x| {
        let ge = match lo {
            Bound::Always => true,
            Bound::Never => false,
            Bound::Key(k) => cmp(x, k) != Ordering::Less,
        };
        let le = match hi {
            Bound::Always => true,
            Bound::Never => false,
            Bound::Key(k) => cmp(x, k) != Ordering::Greater,
        };
        ge && le
    })
}

/// `select(b, v)`: pairs whose tail equals `v`.
pub fn select_eq(b: &Bat, v: &Atom, ctx: &OpCtx<'_>) -> Result<Bat> {
    let chunks = run_morsels(ctx, b.len(), |r| eq_positions(b.tail(), v, r))?;
    Ok(b.gather(&concat_positions(chunks)))
}

/// Builds the value index an equality selection over `b`'s tail probes
/// (`None` for a void tail), charged to `ctx` like the scan it replaces:
/// one tick per morsel that scan would cut, its rows counted in
/// `kernel.morsel_rows`.
pub(crate) fn index_tail(b: &Bat, ctx: &OpCtx<'_>) -> Result<Option<ColumnIndex>> {
    if b.tail().data().is_none() {
        return Ok(None);
    }
    for _ in morsel_ranges(ctx, b.len()) {
        ctx.tick()?;
    }
    if let Some(m) = ctx.metrics {
        m.morsel_rows.add(b.len() as u64);
    }
    Ok(ColumnIndex::build(b.tail()))
}

/// [`select_eq`] answered from `index`, a value index over `b`'s tail:
/// one tick, then the positions the index lists for `v` are gathered,
/// with no row scanned. `None` when the index cannot answer `v` exactly
/// (see [`ColumnIndex::positions`]); the caller scans instead.
pub(crate) fn select_eq_indexed(
    b: &Bat,
    v: &Atom,
    index: &ColumnIndex,
    ctx: &OpCtx<'_>,
) -> Result<Option<Bat>> {
    let Some(rows) = index.positions(b.tail(), v) else {
        return Ok(None);
    };
    ctx.tick()?;
    Ok(Some(b.gather(rows)))
}

/// `select(b, lo, hi)`: pairs whose tail lies in the inclusive range.
pub fn select_range(b: &Bat, lo: &Atom, hi: &Atom, ctx: &OpCtx<'_>) -> Result<Bat> {
    let chunks = run_morsels(ctx, b.len(), |r| range_positions(b.tail(), lo, hi, r))?;
    Ok(b.gather(&concat_positions(chunks)))
}

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

/// True when atoms of the two column types can ever compare equal.
fn joinable(probe: AtomType, build: AtomType) -> bool {
    use AtomType::*;
    let oid = |t| matches!(t, Void | Oid);
    let num = |t| matches!(t, Int | Dbl);
    (oid(probe) && oid(build)) || (num(probe) && num(build)) || probe == build
}

/// Builds the index for probing `build` with values of `probe`: none
/// for a void build side, which answers positionally, and the widened
/// f64 view for dbl-probes-int joins (several ints above 2^53 collapse
/// onto one double).
fn plan_index(probe: &Column, build: &Column) -> Option<ColumnIndex> {
    if probe.atom_type() == AtomType::Dbl && build.atom_type() == AtomType::Int {
        ColumnIndex::build_widened(build)
    } else {
        ColumnIndex::build(build)
    }
}

/// Drives a typed probe of `probe[range]` against `build`, calling
/// `emit(row, matching_build_positions)` for every probe row — including
/// rows with no match (empty slice), which anti-joins need. `idx` must be
/// the plan picked by [`plan_index`] for this column pair.
fn probe_loop(
    probe: &Column,
    build: &Column,
    idx: Option<&ColumnIndex>,
    range: Range<usize>,
    mut emit: impl FnMut(usize, &[u32]),
) {
    let mut one = [0u32; 1];
    let mut positional = |o: u64, i: usize, emit: &mut dyn FnMut(usize, &[u32])| {
        if let Some((bs, bl)) = build.void_run() {
            if o >= bs && ((o - bs) as usize) < bl {
                one[0] = (o - bs) as u32;
                emit(i, &one);
                return;
            }
        }
        emit(i, &[]);
    };
    match (idx, probe.void_run(), probe.data()) {
        // Void build side: positional O(1) lookups.
        (None, Some((ps, _)), _) => {
            for i in range {
                positional(ps + i as u64, i, &mut emit);
            }
        }
        (None, _, Some(ColumnData::Oid(xs))) => {
            for i in range {
                positional(xs[i], i, &mut emit);
            }
        }
        (None, _, _) => {
            for i in range {
                emit(i, &[]);
            }
        }
        // Typed index probes.
        (Some(ix), Some((ps, _)), _) => {
            for i in range {
                emit(i, ix.lookup_u64(ps + i as u64));
            }
        }
        (Some(ix), _, Some(ColumnData::Oid(xs))) => {
            for i in range {
                emit(i, ix.lookup_u64(xs[i]));
            }
        }
        (Some(ix), _, Some(ColumnData::Int(xs))) => match ix {
            // Against a dbl build side the int probes widen to f64 bits.
            ColumnIndex::F64(_) => {
                for i in range {
                    emit(i, ix.lookup_f64_bits((xs[i] as f64).to_bits()));
                }
            }
            _ => {
                for i in range {
                    emit(i, ix.lookup_i64(xs[i]));
                }
            }
        },
        (Some(ix), _, Some(ColumnData::Dbl(xs))) => {
            // plan_index guarantees a bits-keyed index for dbl probes.
            for i in range {
                emit(i, ix.lookup_f64_bits(xs[i].to_bits()));
            }
        }
        (Some(ix), _, Some(ColumnData::Str(s))) => {
            // Bridge dictionaries: resolve each probe-side dict entry to
            // the build side's code once, then walk the codes.
            let build_dict = build.strs();
            let per_code: Vec<&[u32]> = s
                .dict()
                .iter()
                .map(|d| match build_dict.and_then(|b| b.code_of(d)) {
                    Some(code) => ix.lookup_code(code),
                    None => &[],
                })
                .collect();
            for i in range {
                emit(i, per_code[s.codes()[i] as usize]);
            }
        }
        (Some(ix), _, Some(ColumnData::Bit(xs))) => {
            for i in range {
                emit(i, ix.lookup_bit(xs[i]));
            }
        }
        // A column is always void or materialized; keep the match total.
        (Some(_), None, None) => {
            for i in range {
                emit(i, &[]);
            }
        }
    }
}

fn join_core(
    l: &Bat,
    r: &Bat,
    idx: Option<&ColumnIndex>,
    range: Range<usize>,
) -> (Vec<u32>, Vec<u32>) {
    let mut lpos = Vec::new();
    let mut rpos = Vec::new();
    probe_loop(l.tail(), r.head(), idx, range, |i, hits| {
        for &p in hits {
            lpos.push(i as u32);
            rpos.push(p);
        }
    });
    (lpos, rpos)
}

/// `join(l, r)`: Monet's positional join — matches `l.tail` against
/// `r.head` and yields `(l.head, r.tail)` for every match.
pub fn join(l: &Bat, r: &Bat, ctx: &OpCtx<'_>) -> Result<Bat> {
    if !joinable(l.tail().atom_type(), r.head().atom_type()) {
        return Ok(empty_out(l.head().atom_type(), r.tail().atom_type()));
    }
    let plan = plan_index(l.tail(), r.head());
    let idx = plan.as_ref();
    let chunks = run_morsels(ctx, l.len(), |range| join_core(l, r, idx, range))?;
    let matches: usize = chunks.iter().map(|(lp, _)| lp.len()).sum();
    let mut lpos = Vec::with_capacity(matches);
    let mut rpos = Vec::with_capacity(matches);
    for (lp, rp) in chunks {
        lpos.extend_from_slice(&lp);
        rpos.extend_from_slice(&rp);
    }
    Ok(Bat::from_columns_unchecked(
        l.head().gather(&lpos),
        r.tail().gather(&rpos),
    ))
}

fn membership_core(
    l: &Bat,
    r: &Bat,
    idx: Option<&ColumnIndex>,
    keep_matches: bool,
    range: Range<usize>,
) -> Vec<u32> {
    let mut keep = Vec::new();
    probe_loop(l.head(), r.head(), idx, range, |i, hits| {
        if hits.is_empty() != keep_matches {
            keep.push(i as u32);
        }
    });
    keep
}

/// The pairs of `l` whose head occurs among `r`'s heads
/// (`keep_matches`), or does not.
fn membership(l: &Bat, r: &Bat, keep_matches: bool, ctx: &OpCtx<'_>) -> Result<Bat> {
    if !joinable(l.head().atom_type(), r.head().atom_type()) {
        return Ok(if keep_matches {
            empty_out(l.head().atom_type(), l.tail().atom_type())
        } else {
            l.gather(&(0..l.len() as u32).collect::<Vec<_>>())
        });
    }
    let plan = plan_index(l.head(), r.head());
    let idx = plan.as_ref();
    let chunks = run_morsels(ctx, l.len(), |range| {
        membership_core(l, r, idx, keep_matches, range)
    })?;
    Ok(l.gather(&concat_positions(chunks)))
}

/// `semijoin(l, r)`: pairs of `l` whose head occurs among `r`'s heads.
pub fn semijoin(l: &Bat, r: &Bat, ctx: &OpCtx<'_>) -> Result<Bat> {
    membership(l, r, true, ctx)
}

/// `diff(l, r)`: pairs of `l` whose head does **not** occur among `r`'s heads.
pub fn antijoin(l: &Bat, r: &Bat, ctx: &OpCtx<'_>) -> Result<Bat> {
    membership(l, r, false, ctx)
}

// ---------------------------------------------------------------------------
// Duplicates, histograms, sorting
// ---------------------------------------------------------------------------

/// Assigns dense ids to equal values of a typed key iterator: returns the
/// id of every row plus the first-occurrence position of every id.
fn dense_ids_by<K: Eq + Hash>(keys: impl Iterator<Item = K>) -> (Vec<u32>, Vec<u32>) {
    let mut map: HashMap<K, u32> = HashMap::new();
    let mut ids = Vec::new();
    let mut first = Vec::new();
    for (i, k) in keys.enumerate() {
        let next = map.len() as u32;
        let id = *map.entry(k).or_insert(next);
        if id == next {
            first.push(i as u32);
        }
        ids.push(id);
    }
    (ids, first)
}

/// Dense group ids over a column, under atom equality, in first-occurrence
/// order. Returns `(id per row, first position per id)`.
fn dense_ids(col: &Column) -> (Vec<u32>, Vec<u32>) {
    if let Some((_, len)) = col.void_run() {
        // Every void value is distinct.
        let idx: Vec<u32> = (0..len as u32).collect();
        return (idx.clone(), idx);
    }
    let Some(data) = col.data() else {
        return (Vec::new(), Vec::new());
    };
    match data {
        ColumnData::Oid(v) => dense_ids_by(v.iter().copied()),
        ColumnData::Int(v) => dense_ids_by(v.iter().copied()),
        // Bit-pattern keys match atom equality (NaN == NaN, 0.0 != -0.0).
        ColumnData::Dbl(v) => dense_ids_by(v.iter().map(|x| x.to_bits())),
        // Interning makes code equality string equality.
        ColumnData::Str(s) => dense_ids_by(s.codes().iter().copied()),
        ColumnData::Bit(v) => dense_ids_by(v.iter().copied()),
    }
}

/// `unique(b)`: first occurrence of every distinct tail value.
pub fn unique_tail(b: &Bat) -> Bat {
    let (_, first) = dense_ids(b.tail());
    b.gather(&first)
}

/// `histogram(b)`: (tail value, occurrence count) pairs.
pub fn histogram(b: &Bat) -> Bat {
    let (ids, first) = dense_ids(b.tail());
    let mut counts = vec![0i64; first.len()];
    for id in ids {
        counts[id as usize] += 1;
    }
    Bat::from_columns_unchecked(
        b.tail().gather(&first),
        Column::from_data(ColumnData::Int(counts)),
    )
}

/// The permutation that stably sorts `col` ascending under atom order.
fn sort_permutation(col: &Column) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..col.len() as u32).collect();
    let Some(data) = col.data() else {
        return perm; // a void column is already sorted
    };
    match data {
        ColumnData::Oid(v) => perm.sort_by_key(|&i| v[i as usize]),
        ColumnData::Int(v) => perm.sort_by_key(|&i| v[i as usize]),
        ColumnData::Dbl(v) => perm.sort_by(|&a, &b| v[a as usize].total_cmp(&v[b as usize])),
        ColumnData::Str(s) => {
            // Rank the dictionary once, then sort rows by integer rank.
            let ranks = s.dict_ranks();
            perm.sort_by_key(|&i| ranks[s.codes()[i as usize] as usize]);
        }
        ColumnData::Bit(v) => perm.sort_by_key(|&i| v[i as usize]),
    }
    perm
}

/// `sort(b)`: pairs ordered by tail value (stable).
pub fn sort_by_tail(b: &Bat) -> Bat {
    b.gather(&sort_permutation(b.tail()))
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// Numeric aggregate kinds supported by [`aggregate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// Sum of tail values.
    Sum,
    /// Arithmetic mean of tail values.
    Avg,
    /// Minimum tail value.
    Min,
    /// Maximum tail value.
    Max,
}

fn non_numeric(first: Atom) -> MonetError {
    MonetError::TypeMismatch {
        expected: "numeric tail".into(),
        found: first.to_string(),
    }
}

/// Computes a numeric aggregate over the tail column.
pub fn aggregate(b: &Bat, kind: Aggregate) -> Result<Atom> {
    if b.is_empty() {
        return Err(MonetError::EmptyBat(format!("{kind:?}").to_lowercase()));
    }
    let col = b.tail();
    if let Some((seq, len)) = col.void_run() {
        return match kind {
            Aggregate::Min => Ok(Atom::Oid(seq)),
            Aggregate::Max => Ok(Atom::Oid(seq + len as u64 - 1)),
            _ => Err(non_numeric(Atom::Oid(seq))),
        };
    }
    let Some(data) = col.data() else {
        return Err(MonetError::EmptyBat(format!("{kind:?}").to_lowercase()));
    };
    match data {
        ColumnData::Int(v) => match kind {
            Aggregate::Min => Ok(Atom::Int(v.iter().copied().fold(i64::MAX, i64::min))),
            Aggregate::Max => Ok(Atom::Int(v.iter().copied().fold(i64::MIN, i64::max))),
            Aggregate::Sum | Aggregate::Avg => {
                let mut isum = 0i64;
                let mut fsum = 0.0f64;
                for &x in v {
                    isum = isum.wrapping_add(x);
                    fsum += x as f64;
                }
                if kind == Aggregate::Sum {
                    Ok(Atom::Int(isum))
                } else {
                    Ok(Atom::Dbl(fsum / v.len() as f64))
                }
            }
        },
        ColumnData::Dbl(v) => match kind {
            Aggregate::Min => {
                let mut m = v[0];
                for &x in &v[1..] {
                    if x.total_cmp(&m).is_lt() {
                        m = x;
                    }
                }
                Ok(Atom::Dbl(m))
            }
            Aggregate::Max => {
                let mut m = v[0];
                for &x in &v[1..] {
                    if x.total_cmp(&m).is_gt() {
                        m = x;
                    }
                }
                Ok(Atom::Dbl(m))
            }
            Aggregate::Sum | Aggregate::Avg => {
                let fsum: f64 = v.iter().sum();
                if kind == Aggregate::Sum {
                    Ok(Atom::Dbl(fsum))
                } else {
                    Ok(Atom::Dbl(fsum / v.len() as f64))
                }
            }
        },
        ColumnData::Oid(v) => match kind {
            Aggregate::Min => Ok(Atom::Oid(v.iter().copied().fold(u64::MAX, u64::min))),
            Aggregate::Max => Ok(Atom::Oid(v.iter().copied().fold(u64::MIN, u64::max))),
            _ => Err(non_numeric(Atom::Oid(v[0]))),
        },
        ColumnData::Str(s) => match kind {
            Aggregate::Min | Aggregate::Max => {
                // Compare codes by precomputed dictionary rank; only codes
                // actually present in rows participate.
                let ranks = s.dict_ranks();
                let best = if kind == Aggregate::Min {
                    s.codes().iter().copied().min_by_key(|&c| ranks[c as usize])
                } else {
                    s.codes().iter().copied().max_by_key(|&c| ranks[c as usize])
                };
                match best {
                    Some(c) => Ok(Atom::Str(std::sync::Arc::clone(&s.dict()[c as usize]))),
                    None => Err(MonetError::EmptyBat(format!("{kind:?}").to_lowercase())),
                }
            }
            _ => Err(non_numeric(Atom::Str(std::sync::Arc::clone(s.value(0))))),
        },
        ColumnData::Bit(v) => match kind {
            Aggregate::Min => Ok(Atom::Bit(!v.contains(&false))),
            Aggregate::Max => Ok(Atom::Bit(v.contains(&true))),
            _ => Err(non_numeric(Atom::Bit(v[0]))),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn named_points() -> Bat {
        Bat::from_pairs(
            AtomType::Str,
            AtomType::Int,
            [
                (Atom::str("schumacher"), Atom::Int(10)),
                (Atom::str("hakkinen"), Atom::Int(8)),
                (Atom::str("schumacher"), Atom::Int(6)),
                (Atom::str("montoya"), Atom::Int(8)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn select_eq_filters_by_tail() {
        let b = named_points();
        let s = select_eq(&b, &Atom::Int(8), &OpCtx::default()).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.head_at(0).unwrap(), Atom::str("hakkinen"));
    }

    #[test]
    fn select_range_is_inclusive() {
        let b = named_points();
        let s = select_range(&b, &Atom::Int(7), &Atom::Int(10), &OpCtx::default()).unwrap();
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn select_range_on_void_tail_is_positional() {
        let b = Bat::from_tail(AtomType::Int, (0..8).map(Atom::Int))
            .unwrap()
            .reverse(); // head: int, tail: void oids 0..8
        let s = select_range(&b, &Atom::Oid(2), &Atom::Oid(5), &OpCtx::default()).unwrap();
        assert_eq!(s.len(), 4);
        assert_eq!(s.tail_at(0).unwrap(), Atom::Oid(2));
        assert_eq!(s.tail_at(3).unwrap(), Atom::Oid(5));
        // Bounds clamp: an over-wide range selects everything.
        assert_eq!(
            select_range(&b, &Atom::Oid(0), &Atom::Oid(100), &OpCtx::default())
                .unwrap()
                .len(),
            8
        );
    }

    #[test]
    fn join_matches_tail_to_head() {
        // l: oid -> driver, r: driver -> team
        let l = Bat::from_tail(
            AtomType::Str,
            ["schumacher", "hakkinen"].into_iter().map(Atom::str),
        )
        .unwrap();
        let r = Bat::from_pairs(
            AtomType::Str,
            AtomType::Str,
            [
                (Atom::str("schumacher"), Atom::str("ferrari")),
                (Atom::str("hakkinen"), Atom::str("mclaren")),
            ],
        )
        .unwrap();
        let j = join(&l, &r, &OpCtx::default()).unwrap();
        assert_eq!(j.len(), 2);
        assert_eq!(j.find(&Atom::Oid(0)), Some(Atom::str("ferrari")));
        assert_eq!(j.find(&Atom::Oid(1)), Some(Atom::str("mclaren")));
    }

    #[test]
    fn join_multiplies_duplicate_matches() {
        let l = Bat::from_tail(AtomType::Int, [Atom::Int(1)]).unwrap();
        let r = Bat::from_pairs(
            AtomType::Int,
            AtomType::Str,
            [
                (Atom::Int(1), Atom::str("a")),
                (Atom::Int(1), Atom::str("b")),
            ],
        )
        .unwrap();
        assert_eq!(join(&l, &r, &OpCtx::default()).unwrap().len(), 2);
    }

    #[test]
    fn join_against_void_head_is_positional() {
        // r has a void head: matching is pure oid arithmetic.
        let r = Bat::from_tail(AtomType::Str, ["a", "b", "c"].into_iter().map(Atom::str)).unwrap();
        let l = Bat::from_pairs(
            AtomType::Int,
            AtomType::Oid,
            [
                (Atom::Int(10), Atom::Oid(2)),
                (Atom::Int(11), Atom::Oid(9)),
                (Atom::Int(12), Atom::Oid(0)),
            ],
        )
        .unwrap();
        let j = join(&l, &r, &OpCtx::default()).unwrap();
        assert_eq!(j.len(), 2);
        assert_eq!(j.find(&Atom::Int(10)), Some(Atom::str("c")));
        assert_eq!(j.find(&Atom::Int(12)), Some(Atom::str("a")));
    }

    #[test]
    fn join_mixes_int_and_dbl_keys_by_value() {
        let l = Bat::from_tail(AtomType::Dbl, [Atom::Dbl(2.0), Atom::Dbl(2.5)]).unwrap();
        let r = Bat::from_pairs(
            AtomType::Int,
            AtomType::Str,
            [(Atom::Int(2), Atom::str("two"))],
        )
        .unwrap();
        let j = join(&l, &r, &OpCtx::default()).unwrap();
        assert_eq!(j.len(), 1);
        assert_eq!(j.find(&Atom::Oid(0)), Some(Atom::str("two")));
    }

    #[test]
    fn join_incompatible_types_is_empty() {
        let l = Bat::from_tail(AtomType::Str, [Atom::str("x")]).unwrap();
        let r =
            Bat::from_pairs(AtomType::Int, AtomType::Int, [(Atom::Int(1), Atom::Int(2))]).unwrap();
        let j = join(&l, &r, &OpCtx::default()).unwrap();
        assert!(j.is_empty());
        assert_eq!(j.types(), (AtomType::Oid, AtomType::Int));
    }

    #[test]
    fn semijoin_and_antijoin_partition() {
        let l = named_points();
        let r = Bat::from_pairs(
            AtomType::Str,
            AtomType::Int,
            [(Atom::str("schumacher"), Atom::Int(0))],
        )
        .unwrap();
        let semi = semijoin(&l, &r, &OpCtx::default()).unwrap();
        let anti = antijoin(&l, &r, &OpCtx::default()).unwrap();
        assert_eq!(semi.len(), 2);
        assert_eq!(anti.len(), 2);
        assert_eq!(semi.len() + anti.len(), l.len());
    }

    #[test]
    fn unique_keeps_first_occurrence() {
        let b = named_points();
        let u = unique_tail(&b);
        assert_eq!(u.len(), 3);
        assert_eq!(u.tail_at(1).unwrap(), Atom::Int(8));
        assert_eq!(u.head_at(1).unwrap(), Atom::str("hakkinen"));
    }

    #[test]
    fn histogram_counts_tail_values() {
        let b = named_points();
        let h = histogram(&b);
        assert_eq!(h.find(&Atom::Int(8)), Some(Atom::Int(2)));
        assert_eq!(h.find(&Atom::Int(10)), Some(Atom::Int(1)));
    }

    #[test]
    fn sort_by_tail_is_stable() {
        let b = named_points();
        let s = sort_by_tail(&b);
        let tails: Vec<_> = s.tail().iter().collect();
        assert_eq!(
            tails,
            vec![Atom::Int(6), Atom::Int(8), Atom::Int(8), Atom::Int(10)]
        );
        // stability: hakkinen (earlier) precedes montoya among the 8s.
        assert_eq!(s.head_at(1).unwrap(), Atom::str("hakkinen"));
        assert_eq!(s.head_at(2).unwrap(), Atom::str("montoya"));
    }

    #[test]
    fn aggregates_over_ints_and_doubles() {
        let b = named_points();
        assert_eq!(aggregate(&b, Aggregate::Sum).unwrap(), Atom::Int(32));
        assert_eq!(aggregate(&b, Aggregate::Avg).unwrap(), Atom::Dbl(8.0));
        assert_eq!(aggregate(&b, Aggregate::Min).unwrap(), Atom::Int(6));
        assert_eq!(aggregate(&b, Aggregate::Max).unwrap(), Atom::Int(10));

        let d = Bat::from_tail(AtomType::Dbl, [Atom::Dbl(0.5), Atom::Dbl(1.5)]).unwrap();
        assert_eq!(aggregate(&d, Aggregate::Sum).unwrap(), Atom::Dbl(2.0));
    }

    #[test]
    fn aggregate_on_empty_bat_errors() {
        let b = Bat::new(AtomType::Void, AtomType::Dbl);
        assert!(aggregate(&b, Aggregate::Max).is_err());
    }

    #[test]
    fn aggregate_rejects_non_numeric() {
        let b = Bat::from_tail(AtomType::Str, [Atom::str("x")]).unwrap();
        assert!(aggregate(&b, Aggregate::Sum).is_err());
    }

    #[test]
    fn aggregate_min_max_work_on_strings_and_voids() {
        let b = Bat::from_tail(
            AtomType::Str,
            ["pit", "lap", "win"].into_iter().map(Atom::str),
        )
        .unwrap();
        assert_eq!(aggregate(&b, Aggregate::Min).unwrap(), Atom::str("lap"));
        assert_eq!(aggregate(&b, Aggregate::Max).unwrap(), Atom::str("win"));
        let v = b.reverse(); // tail is void oids 0..3
        assert_eq!(aggregate(&v, Aggregate::Min).unwrap(), Atom::Oid(0));
        assert_eq!(aggregate(&v, Aggregate::Max).unwrap(), Atom::Oid(2));
    }

    #[test]
    fn ctx_operators_respect_budget() {
        let guard = crate::guard::ExecBudget::unlimited().with_fuel(1).start();
        let ctx = OpCtx::new(4, &guard);
        // Large enough to clear the per-thread parallel floor at t=4.
        let rows = 4 * MIN_PAR_ROWS_PER_THREAD + 1;
        let b = Bat::from_tail(AtomType::Int, (0..rows as i64).map(Atom::Int)).unwrap();
        // More than one morsel, one fuel unit: the scan must be cut short.
        let err = select_range(&b, &Atom::Int(0), &Atom::Int(99), &ctx).unwrap_err();
        assert!(matches!(err, MonetError::BudgetExhausted { .. }));
    }

    #[test]
    fn parallel_floor_keeps_small_inputs_sequential() {
        // threadcnt=2 measured slower than threadcnt=1 at 100k rows (see
        // `MIN_PAR_ROWS_PER_THREAD`); the per-thread floor pins that regime
        // to the sequential path while genuinely large runs still fan out.
        let metrics = crate::metrics::KernelMetrics::default();
        let small = Bat::from_tail(AtomType::Int, (0..100_000).map(Atom::Int)).unwrap();
        let ctx = OpCtx {
            threads: 2,
            guard: None,
            metrics: Some(&metrics),
        };
        select_range(&small, &Atom::Int(5), &Atom::Int(50), &ctx).unwrap();
        assert_eq!(metrics.morsel_runs_seq.get(), 1);
        assert_eq!(metrics.morsel_runs_par.get(), 0);

        let big_rows = 2 * MIN_PAR_ROWS_PER_THREAD;
        let big = Bat::from_tail(AtomType::Int, (0..big_rows as i64).map(Atom::Int)).unwrap();
        select_range(&big, &Atom::Int(5), &Atom::Int(50), &ctx).unwrap();
        assert_eq!(metrics.morsel_runs_par.get(), 1);
        // Both modes recorded their measured throughput for the planner.
        assert!(metrics.morsel_seq_rows.get() >= 100_000);
        assert!(metrics.morsel_par_rows.get() >= big_rows as u64);
    }

    #[test]
    fn indexed_select_gathers_what_the_scan_keeps() {
        let b = named_points().reverse(); // int head, str tail
        let idx = ColumnIndex::build(b.tail()).unwrap();
        let ctx = OpCtx::default();
        for v in [
            Atom::str("schumacher"),
            Atom::str("villeneuve"),
            Atom::Int(8),
        ] {
            let indexed = select_eq_indexed(&b, &v, &idx, &ctx).unwrap().unwrap();
            assert_eq!(indexed, select_eq(&b, &v, &ctx).unwrap());
        }
    }

    #[test]
    fn index_build_is_charged_like_the_scan_it_replaces() {
        let metrics = crate::metrics::KernelMetrics::default();
        let b = Bat::from_tail(AtomType::Int, (0..1_000).map(Atom::Int)).unwrap();
        let spent = crate::guard::ExecBudget::unlimited().with_fuel(0).start();
        let ctx = OpCtx {
            threads: 1,
            guard: Some(&spent),
            metrics: Some(&metrics),
        };
        let err = index_tail(&b, &ctx).unwrap_err();
        assert!(matches!(err, MonetError::BudgetExhausted { .. }));
        let fuelled = crate::guard::ExecBudget::unlimited().with_fuel(2).start();
        let ctx = OpCtx {
            guard: Some(&fuelled),
            ..ctx
        };
        let idx = index_tail(&b, &ctx).unwrap().unwrap();
        assert_eq!(metrics.morsel_rows.get(), 1_000);
        // The probe is one more tick; the budget is then spent.
        assert!(select_eq_indexed(&b, &Atom::Int(7), &idx, &ctx)
            .unwrap()
            .is_some());
        assert_eq!(fuelled.fuel_remaining(), Some(0));
    }
}
