//! The joint-state inference engine.
//!
//! [`Engine::new`] compiles a [`Dbn`] once into dense tables over the
//! joint state of its *hidden* nodes (1–6 binary nodes in the paper, so
//! at most 64 joint states), which it enumerates exactly; evidence nodes
//! are summed out analytically. One forward step reads the tables —
//! transition, observation, normalize, then the optional Boyen–Koller
//! projection — and serves [`Engine::filter`], its resumable online form
//! ([`Engine::stepper`], which allocates nothing per step) and the
//! forward-backward smoothing behind EM's E-step ([`Engine::smooth`]).
//!
//! Evidence enters per slice: soft likelihood vectors on evidence leaves,
//! hard clamps on hidden nodes (used for partially supervised training).
//! A slice is validated once and becomes one likelihood vector per
//! evidence node, so a joint state's observation factor is one product
//! through precomputed indices. Observed nodes that *condition* other
//! nodes (evidence-as-parent, the paper's Fig. 7b structure) are hardened
//! to their most likely state: their value adds a fixed offset to the CPT
//! rows they select and picks one of the transition matrices, each built
//! on first use (a time-invariant net has exactly one). Inference stays
//! exact.

use std::sync::OnceLock;

use crate::cpt::Cpt;
use crate::dbn::Dbn;
use crate::evidence::EvidenceSeq;
use crate::slice::NodeId;
use crate::{BayesError, Result};

/// How a joint state encodes the hidden nodes' values (first hidden node
/// least significant).
#[derive(Debug, Clone)]
struct Layout {
    hidden: Vec<NodeId>,
    cards: Vec<usize>,
    strides: Vec<usize>,
    /// Number of joint states.
    n: usize,
}

impl Layout {
    fn value(&self, h: usize, state: usize) -> usize {
        (state / self.strides[h]) % self.cards[h]
    }

    /// `Σ value(h, state) · stride` over `(h, stride)` digits, per joint
    /// state: a table of CPT-row parts, factor entries or cluster cells.
    fn table<'a>(&'a self, digits: &'a [(usize, usize)]) -> impl Iterator<Item = usize> + 'a {
        (0..self.n).map(move |s| digits.iter().map(|&(h, st)| self.value(h, s) * st).sum())
    }

    /// Marginal distribution of hidden `node` under a joint `belief`.
    fn marginal(&self, belief: &[f64], node: NodeId) -> Result<Vec<f64>> {
        let h = self.hidden.iter().position(|&n| n == node);
        let h = h.ok_or(BayesError::UnknownNode(node))?;
        let mut out = vec![0.0; self.cards[h]];
        for (state, w) in belief.iter().enumerate() {
            out[self.value(h, state)] += w;
        }
        Ok(out)
    }
}

/// One node's evidence term over the joint states, kept at `lik[at..]`
/// of a [`Slice`]. An observed node's entry `r` is its expected
/// likelihood in CPT row `r` plus the slice's hard offset, where `r` is
/// what its hidden parents select; a clamp on a hidden node (no CPT) has
/// one entry per value. `rows` lists the entries joint states reach.
#[derive(Debug, Clone)]
struct Factor {
    node: NodeId,
    card: usize,
    at: usize,
    rows: Vec<usize>,
    cpt: Option<Cpt>,
    /// Slot in [`Slice`]'s hard values of an observed node that
    /// conditions others.
    core: Option<usize>,
}

/// One slice's evidence as compiled by [`Engine::load`], reused across
/// slices so that stepping allocates nothing.
#[derive(Debug, Clone)]
pub(crate) struct Slice {
    /// Hardened value of each core-observed node.
    hard: Vec<usize>,
    /// Per node: the CPT-row offset its observed parents' hard values
    /// select (the same in the prior and the transition CPT); last, the
    /// index of the transition matrix they select.
    offset: Vec<usize>,
    /// Likelihood entries of every factor.
    lik: Vec<f64>,
    /// Factors with evidence at this slice, in multiplication order.
    active: Vec<usize>,
}

/// Compiled inference engine for one [`Dbn`]; owns its tables.
#[derive(Debug, Clone)]
pub struct Engine {
    layout: Layout,
    /// `value[h * n + state]`: hidden node `h`'s value in `state`.
    value: Vec<usize>,
    /// Core-observed nodes (observed intra parents) and their cards.
    core: Vec<(NodeId, usize)>,
    /// Per node: `(core slot, CPT stride)` of each observed intra parent;
    /// last, the `(core slot, radix)` digits of the transition matrix's
    /// index.
    hard_parents: Vec<Vec<(usize, usize)>>,
    /// `[h * n + state]`: the row of hidden node `h`'s CPTs that its
    /// hidden intra parents select.
    intra_row: Vec<usize>,
    /// `[h * n + prev]`: the transition-row part its temporal parents
    /// select.
    temporal_row: Vec<usize>,
    prior: Vec<Cpt>,
    trans: Vec<Cpt>,
    /// Observed nodes in id order, then hidden nodes in engine order.
    factors: Vec<Factor>,
    /// `[k * n + state]`: factor `k`'s entry for `state`.
    entry: Vec<usize>,
    matrices: Vec<OnceLock<Vec<f64>>>,
}

/// Per-slice joint posteriors over the hidden nodes.
#[derive(Debug, Clone)]
pub struct Posteriors {
    layout: Layout,
    /// Log-likelihood of the evidence under the model.
    pub loglik: f64,
    beliefs: Vec<Vec<f64>>,
}

impl Posteriors {
    /// Number of slices.
    pub fn len(&self) -> usize {
        self.beliefs.len()
    }

    /// True when no slices were processed.
    pub fn is_empty(&self) -> bool {
        self.beliefs.is_empty()
    }

    /// Marginal distribution of a hidden node at slice `t`.
    pub fn marginal(&self, t: usize, node: NodeId) -> Result<Vec<f64>> {
        self.layout.marginal(&self.beliefs[t], node)
    }

    /// `P(node = state)` for every slice — the query-node trace plotted in
    /// the paper's Fig. 9.
    pub fn trace(&self, node: NodeId, state: usize) -> Result<Vec<f64>> {
        (0..self.beliefs.len())
            .map(|t| self.marginal(t, node).map(|m| m[state]))
            .collect()
    }

    /// Raw joint belief at slice `t` (states in engine encoding).
    pub fn belief(&self, t: usize) -> &[f64] {
        &self.beliefs[t]
    }
}

/// The running state of one forward pass.
#[derive(Debug, Clone)]
struct Forward {
    slice: Slice,
    alpha: Vec<f64>,
    next: Vec<f64>,
    obs: Vec<f64>,
    projection: Option<Projection>,
    steps: usize,
    loglik: f64,
}

/// A Boyen–Koller cluster partition compiled against the joint states:
/// `index[c * n + state]` is the cell of `marg` that cluster `c`'s
/// marginal gives `state`.
#[derive(Debug, Clone)]
struct Projection {
    index: Vec<usize>,
    marg: Vec<f64>,
}

impl Projection {
    /// Replaces `belief` by the normalized product of its cluster marginals.
    fn apply(&mut self, belief: &mut [f64]) -> Result<()> {
        let n = belief.len();
        self.marg.fill(0.0);
        for index in self.index.chunks(n) {
            for (&i, w) in index.iter().zip(belief.iter()) {
                self.marg[i] += w;
            }
        }
        for (state, w) in belief.iter_mut().enumerate() {
            let mut p = 1.0;
            for index in self.index.chunks(n) {
                p *= self.marg[index[state]];
            }
            *w = p;
        }
        normalize(belief).map(drop)
    }
}

fn normalize(v: &mut [f64]) -> Result<f64> {
    let s: f64 = v.iter().sum();
    if s.is_nan() || s <= 0.0 {
        return Err(BayesError::Numerical(
            "message vanished (impossible evidence)".into(),
        ));
    }
    for x in v.iter_mut() {
        *x /= s;
    }
    Ok(s)
}

/// Resumable Boyen–Koller filter: the forward pass of [`Engine::filter`]
/// one slice at a time, over evidence windows as they arrive, keeping
/// only the running belief. Annotation steps it, through a whole video in
/// one window or a stream chunk by chunk. Created by [`Engine::stepper`],
/// it owns its engine, running belief, slice count and log-likelihood. It
/// drives the same forward step as `filter`, so the same slices give
/// bit-identical beliefs however they are windowed.
pub struct BkState {
    engine: Engine,
    forward: Forward,
}

impl BkState {
    /// Absorbs evidence slice `t` of `ev` (a window of slices in arrival
    /// order; `t ≥ ev.len()` is a [`BayesError::SliceOutOfRange`]) and
    /// returns the belief after the step. A step allocates nothing, except
    /// to fill a transition matrix on its first use.
    pub fn step(&mut self, ev: &EvidenceSeq, t: usize) -> Result<&[f64]> {
        self.engine.step(&mut self.forward, ev, t)?;
        Ok(&self.forward.alpha)
    }

    /// Number of slices absorbed so far.
    pub fn slices(&self) -> usize {
        self.forward.steps
    }

    /// Accumulated log-likelihood of everything absorbed so far.
    pub fn loglik(&self) -> f64 {
        self.forward.loglik
    }

    /// Marginal of a hidden node under the current belief.
    pub fn marginal(&self, node: NodeId) -> Result<Vec<f64>> {
        if self.forward.steps == 0 {
            return Err(BayesError::EmptySequence);
        }
        self.engine.layout.marginal(&self.forward.alpha, node)
    }
}

/// Smoothed posteriors plus pairwise slice posteriors, for EM.
pub struct Smoothed {
    /// Smoothed per-slice joint posteriors γ_t.
    pub gamma: Posteriors,
    /// Pairwise posteriors ξ_t over (state at t, state at t+1), row-major
    /// `xi[t][i * n_states + j]`, one entry per t in `0..T-1`.
    pub xi: Vec<Vec<f64>>,
    /// Number of joint hidden states.
    pub n_states: usize,
}

impl Engine {
    /// Compiles an engine for `dbn`.
    pub fn new(dbn: &Dbn) -> Result<Self> {
        let net = dbn.slice();
        net.validate()?;
        let nodes = net.nodes();
        let (hidden, core) = (net.hidden_ids(), net.core_observed());
        // `(slot in ids, stride)` of each of `parents` found in `ids`, the
        // strides running on from `stride` through every parent's card.
        let digits = |parents: &[NodeId], mut stride: usize, ids: &[NodeId]| {
            let mut out = Vec::new();
            for &p in parents {
                if let Some(slot) = ids.iter().position(|&id| id == p) {
                    out.push((slot, stride));
                }
                stride *= nodes[p].card;
            }
            out
        };
        let cards: Vec<usize> = hidden.iter().map(|&id| nodes[id].card).collect();
        let strides = digits(&hidden, 1, &hidden).iter().map(|d| d.1).collect();
        let n: usize = cards.iter().product();
        let layout = Layout {
            hidden,
            cards,
            strides,
            n,
        };
        let hidden = &layout.hidden;

        let (mut value, mut intra_row, mut temporal_row) = (Vec::new(), Vec::new(), Vec::new());
        for (h, &id) in hidden.iter().enumerate() {
            value.extend(layout.table(&[(h, 1)]));
            let intra = &nodes[id].intra_parents;
            intra_row.extend(layout.table(&digits(intra, 1, hidden)));
            // Temporal digits follow the intra ones in the transition CPT.
            let first = intra.iter().map(|&p| nodes[p].card).product();
            temporal_row.extend(layout.table(&digits(&dbn.temporal_parents(id), first, hidden)));
        }
        let mut hard_parents: Vec<_> = (nodes.iter())
            .map(|node| digits(&node.intra_parents, 1, &core))
            .collect();
        // One more digit list: the transition matrix's index, over the core
        // nodes that condition a hidden node.
        let keys: Vec<NodeId> = (core.iter().copied())
            .filter(|&c| hidden.iter().any(|&h| nodes[h].intra_parents.contains(&c)))
            .collect();
        hard_parents.push(digits(&keys, 1, &core));

        // Observed nodes' expected likelihoods, then hidden nodes' clamps.
        let (mut factors, mut entry, mut at) = (Vec::new(), Vec::new(), 0);
        for &id in net.observed_ids().iter().chain(hidden) {
            let node = &nodes[id];
            let (cpt, parents) = if node.observed {
                (Some(dbn.prior_cpt(id).clone()), &node.intra_parents[..])
            } else {
                (None, &[id][..])
            };
            entry.extend(layout.table(&digits(parents, 1, hidden)));
            let mut rows = entry[entry.len() - layout.n..].to_vec();
            rows.sort_unstable();
            rows.dedup();
            let (card, core) = (node.card, core.iter().position(|&c| c == id));
            let width = rows[rows.len() - 1] + 1;
            factors.push(Factor {
                node: id,
                card,
                at,
                rows,
                cpt,
                core,
            });
            at += width;
        }

        Ok(Engine {
            matrices: (0..keys.iter().map(|&c| nodes[c].card).product())
                .map(|_| OnceLock::new())
                .collect(),
            hard_parents,
            core: core.iter().map(|&id| (id, nodes[id].card)).collect(),
            prior: hidden.iter().map(|&id| dbn.prior_cpt(id).clone()).collect(),
            trans: hidden.iter().map(|&id| dbn.trans_cpt(id).clone()).collect(),
            layout,
            value,
            intra_row,
            temporal_row,
            factors,
            entry,
        })
    }

    /// Hidden node ids in engine order.
    pub fn hidden(&self) -> &[NodeId] {
        &self.layout.hidden
    }

    /// Value of hidden node `h` (engine order) in joint state `state`.
    pub(crate) fn value(&self, h: usize, state: usize) -> usize {
        self.value[h * self.layout.n + state]
    }

    /// Prior-CPT row of hidden node `h` in `state` under slice `s`.
    pub(crate) fn prior_row(&self, h: usize, state: usize, s: &Slice) -> usize {
        self.intra_row[h * self.layout.n + state] + s.offset[self.layout.hidden[h]]
    }

    /// Transition-CPT row of hidden node `h` from `prev` into `cur` under
    /// slice `s` (the slice of `cur`).
    pub(crate) fn trans_row(&self, h: usize, prev: usize, cur: usize, s: &Slice) -> usize {
        self.prior_row(h, cur, s) + self.temporal_row[h * self.layout.n + prev]
    }

    /// Observed nodes in id order; the position `k` addresses
    /// [`evidence_row`](Self::evidence_row) and [`hard_value`](Self::hard_value).
    pub(crate) fn observed(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.factors
            .iter()
            .take_while(|f| f.cpt.is_some())
            .map(|f| f.node)
    }

    /// CPT row of the `k`-th observed node in `state` under slice `s`.
    pub(crate) fn evidence_row(&self, k: usize, state: usize, s: &Slice) -> usize {
        self.entry[k * self.layout.n + state] + s.offset[self.factors[k].node]
    }

    /// Hardened value of the `k`-th observed node under slice `s`, when it
    /// conditions another node.
    pub(crate) fn hard_value(&self, k: usize, s: &Slice) -> Option<usize> {
        self.factors[k].core.map(|c| s.hard[c])
    }

    /// Fresh per-slice buffers for [`load`](Self::load).
    pub(crate) fn slice(&self) -> Slice {
        Slice {
            hard: vec![0; self.core.len()],
            offset: vec![0; self.hard_parents.len()],
            lik: vec![
                0.0;
                (self.factors.last()).map_or(0, |f| f.at + f.rows[f.rows.len() - 1] + 1)
            ],
            active: Vec::with_capacity(self.factors.len()),
        }
    }

    /// Validates slice `t` of `ev` once and compiles it into `s`: the hard
    /// values and the offsets they select, then each present factor's
    /// likelihood entries.
    pub(crate) fn load(&self, ev: &EvidenceSeq, t: usize, s: &mut Slice) -> Result<()> {
        if t >= ev.len() {
            return Err(BayesError::SliceOutOfRange { t, len: ev.len() });
        }
        for (c, &(id, card)) in self.core.iter().enumerate() {
            let obs = ev
                .get(t, id)
                .ok_or(BayesError::MissingHardEvidence { node: id, t })?;
            obs.validate(id, card)?;
            s.hard[c] = obs.argmax(card);
        }
        for (offset, parents) in s.offset.iter_mut().zip(&self.hard_parents) {
            *offset = parents.iter().map(|&(c, stride)| s.hard[c] * stride).sum();
        }
        s.active.clear();
        for (k, f) in self.factors.iter().enumerate() {
            let Some(obs) = ev.get(t, f.node) else {
                continue; // an unobserved leaf sums to 1
            };
            let (offset, lik) = (s.offset[f.node], &mut s.lik[f.at..]);
            match (&f.cpt, f.core) {
                (Some(cpt), Some(c)) => {
                    // Hardened: its value selects one cell per row.
                    let (v, l) = (s.hard[c], obs.likelihood(s.hard[c], f.card));
                    for &row in &f.rows {
                        lik[row] = cpt.prob(offset + row, v) * l;
                    }
                }
                (Some(cpt), None) => {
                    obs.validate(f.node, f.card)?;
                    for &row in &f.rows {
                        let mut sum = 0.0;
                        for v in 0..f.card {
                            sum += cpt.prob(offset + row, v) * obs.likelihood(v, f.card);
                        }
                        lik[row] = sum;
                    }
                }
                (None, _) => {
                    obs.validate(f.node, f.card)?;
                    for &v in &f.rows {
                        lik[v] = obs.likelihood(v, f.card);
                    }
                }
            }
            s.active.push(k);
        }
        Ok(())
    }

    /// Observation factor per joint state: the product of the slice's
    /// present factors, in factor order.
    fn observe(&self, s: &Slice, out: &mut [f64]) {
        for (state, o) in out.iter_mut().enumerate() {
            let mut f = 1.0;
            for &k in &s.active {
                f *= s.lik[self.factors[k].at + self.entry[k * self.layout.n + state]];
            }
            *o = f;
        }
    }

    /// Prior joint vector at slice 0.
    fn prior(&self, s: &Slice, out: &mut [f64]) {
        for (state, o) in out.iter_mut().enumerate() {
            let mut p = 1.0;
            for (h, cpt) in self.prior.iter().enumerate() {
                p *= cpt.prob(self.prior_row(h, state, s), self.value(h, state));
            }
            *o = p;
        }
    }

    /// Transition matrix selected by slice `s`, row-major
    /// `m[prev * n + cur]`; built on its first use.
    fn matrix(&self, s: &Slice) -> &[f64] {
        self.matrices[s.offset[self.hard_parents.len() - 1]].get_or_init(|| {
            let n = self.layout.n;
            let mut m = vec![1.0; n * n];
            for prev in 0..n {
                for cur in 0..n {
                    let mut p = 1.0;
                    for (h, cpt) in self.trans.iter().enumerate() {
                        p *= cpt.prob(self.trans_row(h, prev, cur, s), self.value(h, cur));
                    }
                    m[prev * n + cur] = p;
                }
            }
            m
        })
    }

    /// The one forward step: absorbs slice `t` of `ev` into `fwd`.
    fn step(&self, fwd: &mut Forward, ev: &EvidenceSeq, t: usize) -> Result<()> {
        self.load(ev, t, &mut fwd.slice)?;
        if fwd.steps == 0 {
            self.prior(&fwd.slice, &mut fwd.next);
        } else {
            let trans = self.matrix(&fwd.slice);
            fwd.next.fill(0.0);
            for (&w, row) in fwd.alpha.iter().zip(trans.chunks(self.layout.n)) {
                if w == 0.0 {
                    continue;
                }
                for (x, r) in fwd.next.iter_mut().zip(row) {
                    *x += w * r;
                }
            }
        }
        self.observe(&fwd.slice, &mut fwd.obs);
        for (x, o) in fwd.next.iter_mut().zip(&fwd.obs) {
            *x *= o;
        }
        let scale = normalize(&mut fwd.next)?.ln();
        if let Some(p) = &mut fwd.projection {
            p.apply(&mut fwd.next)?;
        }
        fwd.loglik += scale;
        std::mem::swap(&mut fwd.alpha, &mut fwd.next);
        fwd.steps += 1;
        Ok(())
    }

    /// Validates a cluster partition and compiles it; `None` when the
    /// projection is the identity (at most one cluster).
    fn projection(&self, clusters: &[Vec<NodeId>]) -> Result<Option<Projection>> {
        let (layout, bad) = (&self.layout, |m: String| Err(BayesError::BadClusters(m)));
        let mut seen = vec![false; layout.hidden.len()];
        let (mut index, mut cells) = (Vec::new(), 0);
        for cluster in clusters {
            let mut digits = Vec::new();
            let mut size = 1;
            for &node in cluster {
                let Some(h) = layout.hidden.iter().position(|&id| id == node) else {
                    return bad(format!("node {node} is not a hidden node"));
                };
                if std::mem::replace(&mut seen[h], true) {
                    return bad(format!("node {node} appears twice"));
                }
                digits.push((h, size));
                size *= layout.cards[h];
            }
            index.extend(layout.table(&digits).map(|i| cells + i));
            cells += size;
        }
        let covered = seen.iter().filter(|&&s| s).count();
        if covered != seen.len() {
            return bad(format!("{covered} of {} hidden nodes covered", seen.len()));
        }
        let marg = vec![0.0; cells];
        Ok((clusters.len() > 1).then_some(Projection { index, marg }))
    }

    /// A forward pass before its first slice.
    fn forward(&self, clusters: Option<&[Vec<NodeId>]>) -> Result<Forward> {
        let n = self.layout.n;
        Ok(Forward {
            slice: self.slice(),
            alpha: vec![0.0; n],
            next: vec![0.0; n],
            obs: vec![0.0; n],
            projection: clusters.map(|c| self.projection(c)).transpose()?.flatten(),
            steps: 0,
            loglik: 0.0,
        })
    }

    /// Starts a resumable Boyen–Koller filter that owns this engine. With
    /// `clusters = None` (or one cluster) each step is exact; otherwise
    /// the BK projection is applied after every step. The returned
    /// [`BkState`] absorbs evidence one slice at a time — the form of
    /// [`Engine::filter`] that inference over a video's feature rows runs.
    pub fn stepper(self, clusters: Option<&[Vec<NodeId>]>) -> Result<BkState> {
        Ok(BkState {
            forward: self.forward(clusters)?,
            engine: self,
        })
    }

    /// Forward filtering. With `clusters = None` (or one cluster) this is
    /// exact; otherwise the Boyen–Koller projection is applied after every
    /// step — the paper's "modified Boyen-Koller algorithm for approximate
    /// inference". Beside one set of per-pass buffers, it allocates only
    /// the beliefs it returns.
    pub fn filter(&self, ev: &EvidenceSeq, clusters: Option<&[Vec<NodeId>]>) -> Result<Posteriors> {
        if ev.is_empty() {
            return Err(BayesError::EmptySequence);
        }
        let mut fwd = self.forward(clusters)?;
        let mut beliefs = Vec::with_capacity(ev.len());
        for t in 0..ev.len() {
            self.step(&mut fwd, ev, t)?;
            beliefs.push(fwd.alpha.clone());
        }
        let (layout, loglik) = (self.layout.clone(), fwd.loglik);
        Ok(Posteriors {
            layout,
            loglik,
            beliefs,
        })
    }

    /// Exact forward-backward smoothing, returning per-slice posteriors
    /// γ_t and pairwise posteriors ξ_t (the EM E-step quantities). The
    /// forward pass is [`filter`](Self::filter)'s step; per slice it
    /// records the alpha, the observation factor and the transition
    /// matrix the backward pass reads.
    pub fn smooth(&self, ev: &EvidenceSeq) -> Result<Smoothed> {
        if ev.is_empty() {
            return Err(BayesError::EmptySequence);
        }
        let (tlen, n) = (ev.len(), self.layout.n);
        let mut fwd = self.forward(None)?;
        let (mut alphas, mut obs_factors, mut transes) = (Vec::new(), Vec::new(), Vec::new());
        for t in 0..tlen {
            self.step(&mut fwd, ev, t)?;
            alphas.push(fwd.alpha.clone());
            obs_factors.push(fwd.obs.clone());
            if t > 0 {
                transes.push(self.matrix(&fwd.slice));
            }
        }

        // Backward pass.
        let mut betas: Vec<Vec<f64>> = vec![vec![1.0; n]; tlen];
        for t in (0..tlen - 1).rev() {
            let (obs, bnext) = (&obs_factors[t + 1], &betas[t + 1]);
            let mut b = vec![0.0; n];
            for (bp, row) in b.iter_mut().zip(transes[t].chunks(n)) {
                let mut s = 0.0;
                for cur in 0..n {
                    s += row[cur] * obs[cur] * bnext[cur];
                }
                *bp = s;
            }
            normalize(&mut b)?;
            betas[t] = b;
        }

        // Gammas and xis.
        let mut beliefs = Vec::with_capacity(tlen);
        for (alpha, beta) in alphas.iter().zip(&betas) {
            let mut g: Vec<f64> = alpha.iter().zip(beta).map(|(a, b)| a * b).collect();
            normalize(&mut g)?;
            beliefs.push(g);
        }
        let mut xi = Vec::with_capacity(tlen - 1);
        for t in 0..tlen - 1 {
            let (obs, beta) = (&obs_factors[t + 1], &betas[t + 1]);
            let mut x = vec![0.0; n * n];
            for (prev, row) in transes[t].chunks(n).enumerate() {
                let a = alphas[t][prev];
                if a == 0.0 {
                    continue;
                }
                for cur in 0..n {
                    x[prev * n + cur] = a * row[cur] * obs[cur] * beta[cur];
                }
            }
            normalize(&mut x)?;
            xi.push(x);
        }

        let (layout, loglik) = (self.layout.clone(), fwd.loglik);
        let gamma = Posteriors {
            layout,
            loglik,
            beliefs,
        };
        Ok(Smoothed {
            gamma,
            xi,
            n_states: n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpt::Cpt;
    use crate::evidence::Obs;
    use crate::slice::SliceNet;

    /// EA -> Kw(observed), EA_{t-1} -> EA_t : a 2-state HMM in disguise.
    fn mini_dbn() -> Dbn {
        let mut s = SliceNet::new();
        let ea = s.hidden("EA", 2, &[]);
        let kw = s.observed("Kw", 2, &[ea]);
        let mut d = Dbn::new(s, vec![(ea, ea)]).unwrap();
        d.set_prior_cpt(ea, Cpt::binary(vec![], &[0.2]).unwrap())
            .unwrap();
        d.set_trans_cpt(ea, Cpt::binary(vec![2], &[0.1, 0.8]).unwrap())
            .unwrap();
        d.set_cpt(kw, Cpt::binary(vec![2], &[0.1, 0.7]).unwrap())
            .unwrap();
        d
    }

    #[test]
    fn single_slice_posterior_matches_bayes_rule() {
        let d = mini_dbn();
        let e = Engine::new(&d).unwrap();
        let mut ev = EvidenceSeq::new(1);
        ev.set(0, 1, Obs::Hard(1));
        let post = e.filter(&ev, None).unwrap();
        // P(EA=1 | Kw=1) = 0.2*0.7 / (0.2*0.7 + 0.8*0.1) = 0.14/0.22
        let m = post.marginal(0, 0).unwrap();
        assert!((m[1] - 0.14 / 0.22).abs() < 1e-12);
        // loglik = ln P(Kw=1) = ln 0.22
        assert!((post.loglik - 0.22f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn soft_evidence_interpolates_between_hard_cases() {
        let d = mini_dbn();
        let e = Engine::new(&d).unwrap();
        let mut hard1 = EvidenceSeq::new(1);
        hard1.set(0, 1, Obs::Hard(1));
        let p1 = e.filter(&hard1, None).unwrap().marginal(0, 0).unwrap()[1];
        let mut hard0 = EvidenceSeq::new(1);
        hard0.set(0, 1, Obs::Hard(0));
        let p0 = e.filter(&hard0, None).unwrap().marginal(0, 0).unwrap()[1];
        let mut soft = EvidenceSeq::new(1);
        soft.set_prob(0, 1, 0.6);
        let ps = e.filter(&soft, None).unwrap().marginal(0, 0).unwrap()[1];
        assert!(ps > p0.min(p1) && ps < p0.max(p1));
    }

    #[test]
    fn filtering_carries_state_across_slices() {
        let d = mini_dbn();
        let e = Engine::new(&d).unwrap();
        // Strong keyword evidence at t=0 should raise P(EA=1) at t=1 even
        // with neutral evidence there (persistence through trans 0.8).
        let mut ev = EvidenceSeq::new(2);
        ev.set(0, 1, Obs::Hard(1));
        ev.set_prob(1, 1, 0.5);
        let post = e.filter(&ev, None).unwrap();
        let p_t1 = post.marginal(1, 0).unwrap()[1];

        let mut flat = EvidenceSeq::new(2);
        flat.set_prob(0, 1, 0.5);
        flat.set_prob(1, 1, 0.5);
        let base = e.filter(&flat, None).unwrap().marginal(1, 0).unwrap()[1];
        assert!(p_t1 > base, "p_t1={p_t1} should exceed baseline {base}");
    }

    #[test]
    fn hidden_clamp_forces_state() {
        let d = mini_dbn();
        let e = Engine::new(&d).unwrap();
        let mut ev = EvidenceSeq::new(1);
        ev.set(0, 0, Obs::Hard(1)); // clamp EA itself
        let post = e.filter(&ev, None).unwrap();
        assert!((post.marginal(0, 0).unwrap()[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn impossible_evidence_reports_numerical_error() {
        let mut s = SliceNet::new();
        let a = s.hidden("A", 2, &[]);
        let mut d = Dbn::bn(s).unwrap();
        d.set_prior_cpt(a, Cpt::binary(vec![], &[0.0]).unwrap())
            .unwrap();
        let e = Engine::new(&d).unwrap();
        let mut ev = EvidenceSeq::new(1);
        ev.set(0, a, Obs::Hard(1)); // P(A=1)=0 yet clamped to 1
        assert!(matches!(e.filter(&ev, None), Err(BayesError::Numerical(_))));
    }

    #[test]
    fn smoothing_refines_filtering_with_future_evidence() {
        let d = mini_dbn();
        let e = Engine::new(&d).unwrap();
        let mut ev = EvidenceSeq::new(3);
        ev.set_prob(0, 1, 0.5);
        ev.set(1, 1, Obs::Hard(1));
        ev.set(2, 1, Obs::Hard(1));
        let filt = e.filter(&ev, None).unwrap();
        let smo = e.smooth(&ev).unwrap();
        // Future keyword evidence should raise the smoothed posterior at
        // t=0 above the filtered one.
        let pf = filt.marginal(0, 0).unwrap()[1];
        let ps = smo.gamma.marginal(0, 0).unwrap()[1];
        assert!(ps > pf);
        // Log-likelihoods agree (both are exact).
        assert!((filt.loglik - smo.gamma.loglik).abs() < 1e-10);
    }

    #[test]
    fn xi_marginalizes_to_gamma() {
        let d = mini_dbn();
        let e = Engine::new(&d).unwrap();
        let mut ev = EvidenceSeq::new(4);
        for t in 0..4 {
            ev.set_prob(t, 1, 0.3 + 0.1 * t as f64);
        }
        let smo = e.smooth(&ev).unwrap();
        let n = smo.n_states;
        for t in 0..3 {
            // Row sums of xi_t = gamma_t, column sums = gamma_{t+1}.
            for i in 0..n {
                let row: f64 = (0..n).map(|j| smo.xi[t][i * n + j]).sum();
                assert!((row - smo.gamma.belief(t)[i]).abs() < 1e-9);
            }
            for j in 0..n {
                let col: f64 = (0..n).map(|i| smo.xi[t][i * n + j]).sum();
                assert!((col - smo.gamma.belief(t + 1)[j]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn single_cluster_projection_is_identity() {
        let d = mini_dbn();
        let e = Engine::new(&d).unwrap();
        let mut ev = EvidenceSeq::new(5);
        for t in 0..5 {
            ev.set_prob(t, 1, 0.7);
        }
        let exact = e.filter(&ev, None).unwrap();
        let one_cluster = e.filter(&ev, Some(&[vec![0]])).unwrap();
        for t in 0..5 {
            let a = exact.marginal(t, 0).unwrap();
            let b = one_cluster.marginal(t, 0).unwrap();
            assert!((a[1] - b[1]).abs() < 1e-12);
        }
    }

    #[test]
    fn cluster_validation_rejects_bad_partitions() {
        let d = mini_dbn();
        let e = Engine::new(&d).unwrap();
        let ev = EvidenceSeq::new(1);
        assert!(matches!(
            e.filter(&ev, Some(&[vec![0, 0]])),
            Err(BayesError::BadClusters(_))
        ));
        assert!(matches!(
            e.filter(&ev, Some(&[vec![1]])),
            Err(BayesError::BadClusters(_))
        ));
        assert!(matches!(
            e.filter(&ev, Some(&[vec![]])),
            Err(BayesError::BadClusters(_))
        ));
    }

    #[test]
    fn step_rejects_a_slice_past_the_window() {
        // No evidence-as-parent node, so nothing else would notice the
        // missing slice: the step must refuse it and keep its clock.
        let e = Engine::new(&mini_dbn()).unwrap();
        let mut state = e.stepper(None).unwrap();
        let window = EvidenceSeq::new(1);
        assert_eq!(
            state.step(&window, 1).unwrap_err(),
            BayesError::SliceOutOfRange { t: 1, len: 1 }
        );
        assert_eq!(state.slices(), 0);
        state.step(&window, 0).unwrap();
        assert_eq!(state.slices(), 1);
    }

    #[test]
    fn empty_sequence_is_rejected() {
        let d = mini_dbn();
        let e = Engine::new(&d).unwrap();
        assert!(matches!(
            e.filter(&EvidenceSeq::new(0), None),
            Err(BayesError::EmptySequence)
        ));
    }

    /// Evidence-as-parent (Fig. 7b): Kw -> EA with Kw observed.
    #[test]
    fn core_observed_parent_selects_cpt_row() {
        let mut s = SliceNet::new();
        let kw = s.observed("Kw", 2, &[]);
        let ea = s.hidden("EA", 2, &[kw]);
        let mut d = Dbn::bn(s).unwrap();
        d.set_cpt(kw, Cpt::binary(vec![], &[0.5]).unwrap()).unwrap();
        d.set_prior_cpt(ea, Cpt::binary(vec![2], &[0.1, 0.9]).unwrap())
            .unwrap();
        d.set_trans_cpt(ea, Cpt::binary(vec![2], &[0.1, 0.9]).unwrap())
            .unwrap();
        let e = Engine::new(&d).unwrap();
        let mut ev = EvidenceSeq::new(1);
        ev.set(0, kw, Obs::Hard(1));
        let post = e.filter(&ev, None).unwrap();
        assert!((post.marginal(0, ea).unwrap()[1] - 0.9).abs() < 1e-12);
        // Soft evidence on a core node hardens to its argmax.
        let mut ev2 = EvidenceSeq::new(1);
        ev2.set_prob(0, kw, 0.8);
        let post2 = e.filter(&ev2, None).unwrap();
        assert!((post2.marginal(0, ea).unwrap()[1] - 0.9).abs() < 1e-12);
        // Missing evidence on a core node is an error.
        let ev3 = EvidenceSeq::new(1);
        assert!(matches!(
            e.filter(&ev3, None),
            Err(BayesError::MissingHardEvidence { .. })
        ));
    }

    #[test]
    fn bk_projection_factorizes_two_node_belief() {
        // Two coupled hidden nodes; project onto singleton clusters and
        // check the result is the product of marginals.
        let mut s = SliceNet::new();
        let a = s.hidden("A", 2, &[]);
        let b = s.hidden("B", 2, &[a]);
        let mut d = Dbn::bn(s).unwrap();
        d.set_prior_cpt(a, Cpt::binary(vec![], &[0.3]).unwrap())
            .unwrap();
        d.set_prior_cpt(b, Cpt::binary(vec![2], &[0.2, 0.9]).unwrap())
            .unwrap();
        let e = Engine::new(&d).unwrap();
        let ev = EvidenceSeq::new(1);
        let post = e.filter(&ev, None).unwrap();
        let ma = post.marginal(0, a).unwrap();
        let mb = post.marginal(0, b).unwrap();
        let projected = e.filter(&ev, Some(&[vec![a], vec![b]])).unwrap();
        let belief = projected.belief(0);
        // After projection: belief(a_v, b_v) = ma[a_v] * mb[b_v].
        // Engine encoding: state = a_v * 1 + b_v * 2.
        for (av, &mav) in ma.iter().enumerate() {
            for (bv, &mbv) in mb.iter().enumerate() {
                let idx = av + bv * 2;
                assert!((belief[idx] - mav * mbv).abs() < 1e-12);
            }
        }
    }
}
