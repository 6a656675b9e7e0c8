//! The reference joint-state inference engine — the differential ground
//! truth of `reference_differential.rs`.
//!
//! This is the engine as it was before `f1_bayes::engine` compiled the
//! network into dense tables, kept verbatim (only the imports changed):
//! it borrows the [`Dbn`], rebuilds every parent configuration through
//! `HashMap`s per joint state, and runs its own forward loop inside
//! `smooth`. It lives under `tests/` (a module directory, not a test
//! target of its own) so no build of the crate ships it; it uses only
//! the crate's public API. Its own unit tests stay with the production
//! engine.
//!
//! The engine compiles a [`Dbn`] into a compact representation over the
//! joint state of its *hidden* nodes (the paper's networks have 1–6 hidden
//! binary nodes, so at most 64 joint states) and provides:
//!
//! * **filtering** — forward message passing with per-step normalization,
//!   optionally interleaved with the Boyen–Koller cluster projection
//!   ([`Engine::filter`]),
//! * **smoothing** — forward-backward posteriors and pairwise slice
//!   posteriors, the E-step quantities for EM ([`Engine::smooth`]),
//! * **log-likelihood** of an evidence sequence.
//!
//! Evidence enters per slice: soft likelihood vectors on evidence leaves,
//! hard clamps on hidden nodes (used for partially supervised training).
//! Observed nodes that *condition* other nodes (evidence-as-parent, the
//! paper's Fig. 7b structure) are hardened to their most likely state —
//! their value then selects CPT rows, which makes the transition model
//! time-varying but keeps inference exact.

#![allow(dead_code)]

use std::collections::HashMap;

use f1_bayes::dbn::Dbn;
use f1_bayes::evidence::EvidenceSeq;
use f1_bayes::slice::NodeId;
use f1_bayes::{BayesError, Result};

/// Compiled inference engine for one [`Dbn`].
pub struct Engine<'a> {
    dbn: &'a Dbn,
    hidden: Vec<NodeId>,
    hpos: HashMap<NodeId, usize>,
    cards: Vec<usize>,
    strides: Vec<usize>,
    n_states: usize,
    core_observed: Vec<NodeId>,
    /// Whether any hidden node has a core-observed intra parent — if not,
    /// the transition matrix is time-invariant and cached.
    time_varying: bool,
}

/// Per-slice joint posteriors over the hidden nodes.
#[derive(Debug, Clone)]
pub struct Posteriors {
    hidden: Vec<NodeId>,
    cards: Vec<usize>,
    strides: Vec<usize>,
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
        let h = self
            .hidden
            .iter()
            .position(|&n| n == node)
            .ok_or(BayesError::UnknownNode(node))?;
        let card = self.cards[h];
        let mut out = vec![0.0; card];
        for (state, w) in self.beliefs[t].iter().enumerate() {
            out[(state / self.strides[h]) % card] += w;
        }
        Ok(out)
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

/// Resumable Boyen–Koller filter: the forward pass of
/// [`Engine::filter`] exposed one slice at a time, so the DBN can run
/// *online* as evidence windows arrive (live ingest) instead of
/// requiring the whole sequence up front.
///
/// Created by [`Engine::stepper`]. Each [`step`](BkState::step) call
/// consumes one evidence slice and returns the (projected) joint
/// belief after absorbing it; the state carries the running alpha
/// vector, slice count, accumulated log-likelihood, and the cached
/// transition matrix across calls. Feeding the same slices through
/// `step` produces bit-identical beliefs to one batch `filter` call —
/// batch filtering is implemented *on top of* this type.
pub struct BkState<'e, 'a> {
    engine: &'e Engine<'a>,
    clusters: Option<Vec<Vec<NodeId>>>,
    alpha: Vec<f64>,
    steps: usize,
    loglik: f64,
    cached_trans: Option<Vec<f64>>,
}

impl<'e, 'a> BkState<'e, 'a> {
    /// Absorbs evidence slice `t` of `ev` and returns the belief after
    /// the step. The first call runs the prior update; every later call
    /// runs transition → observation → normalize → project. Callers
    /// stream windows by passing each window's slices in arrival order
    /// (the `t` index addresses *within* `ev`; the filter's own clock
    /// is [`slices`](BkState::slices)).
    pub fn step(&mut self, ev: &EvidenceSeq, t: usize) -> Result<Vec<f64>> {
        let engine = self.engine;
        let hard = engine.hard_values(ev, t)?;
        let mut next = if self.steps == 0 {
            engine.prior_vec(&hard)?
        } else {
            let trans = if engine.time_varying {
                self.trans_matrix(&hard)?
            } else {
                match &self.cached_trans {
                    Some(m) => m.clone(),
                    None => {
                        let m = self.trans_matrix(&hard)?;
                        self.cached_trans = Some(m.clone());
                        m
                    }
                }
            };
            let n = engine.n_states;
            let mut next = vec![0.0; n];
            for prev in 0..n {
                let w = self.alpha[prev];
                if w == 0.0 {
                    continue;
                }
                let row = &trans[prev * n..(prev + 1) * n];
                for cur in 0..n {
                    next[cur] += w * row[cur];
                }
            }
            next
        };
        let obs = engine.obs_factor(ev, t, &hard)?;
        for (x, o) in next.iter_mut().zip(&obs) {
            *x *= o;
        }
        let scale = Engine::normalize(&mut next)?.ln();
        // Match `filter`'s operation order exactly: at t=0 the
        // projection runs *after* the loglik accumulation either way,
        // but later steps normalize before projecting.
        if let Some(c) = &self.clusters {
            engine.project(&mut next, c)?;
        }
        self.loglik += scale;
        self.alpha = next.clone();
        self.steps += 1;
        Ok(next)
    }

    fn trans_matrix(&self, hard: &HashMap<NodeId, usize>) -> Result<Vec<f64>> {
        self.engine.trans_matrix(hard)
    }

    /// Feeds every slice of `ev` in order. Returns the number of slices
    /// absorbed (convenience for chunked ingest).
    pub fn run(&mut self, ev: &EvidenceSeq) -> Result<usize> {
        for t in 0..ev.len() {
            self.step(ev, t)?;
        }
        Ok(ev.len())
    }

    /// Number of slices absorbed so far.
    pub fn slices(&self) -> usize {
        self.steps
    }

    /// Accumulated log-likelihood of everything absorbed so far.
    pub fn loglik(&self) -> f64 {
        self.loglik
    }

    /// Current joint belief (empty before the first step).
    pub fn belief(&self) -> &[f64] {
        &self.alpha
    }

    /// Marginal of a hidden node under the current belief.
    pub fn marginal(&self, node: NodeId) -> Result<Vec<f64>> {
        if self.steps == 0 {
            return Err(BayesError::EmptySequence);
        }
        let engine = self.engine;
        let h = engine
            .hidden
            .iter()
            .position(|&n| n == node)
            .ok_or(BayesError::UnknownNode(node))?;
        let card = engine.cards[h];
        let mut out = vec![0.0; card];
        for (state, w) in self.alpha.iter().enumerate() {
            out[(state / engine.strides[h]) % card] += w;
        }
        Ok(out)
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

impl<'a> Engine<'a> {
    /// Compiles an engine for `dbn`.
    pub fn new(dbn: &'a Dbn) -> Result<Self> {
        dbn.slice().validate()?;
        let hidden = dbn.slice().hidden_ids();
        let cards: Vec<usize> = hidden
            .iter()
            .map(|&id| dbn.slice().nodes()[id].card)
            .collect();
        let mut strides = Vec::with_capacity(cards.len());
        let mut acc = 1usize;
        for &c in &cards {
            strides.push(acc);
            acc *= c;
        }
        let hpos: HashMap<NodeId, usize> =
            hidden.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        let core_observed = dbn.slice().core_observed();
        let core_set: std::collections::HashSet<NodeId> = core_observed.iter().copied().collect();
        let time_varying = hidden.iter().any(|&id| {
            dbn.slice().nodes()[id]
                .intra_parents
                .iter()
                .any(|p| core_set.contains(p))
        });
        Ok(Engine {
            dbn,
            hidden,
            hpos,
            cards,
            strides,
            n_states: acc,
            core_observed,
            time_varying,
        })
    }

    /// Number of joint hidden states.
    pub fn n_states(&self) -> usize {
        self.n_states
    }

    /// Hidden node ids in engine order.
    pub fn hidden(&self) -> &[NodeId] {
        &self.hidden
    }

    fn value_of(&self, state: usize, node: NodeId) -> usize {
        let h = self.hpos[&node];
        (state / self.strides[h]) % self.cards[h]
    }

    /// Hard values of core-observed nodes at slice `t`.
    fn hard_values(&self, ev: &EvidenceSeq, t: usize) -> Result<HashMap<NodeId, usize>> {
        let mut out = HashMap::new();
        for &id in &self.core_observed {
            let card = self.dbn.slice().nodes()[id].card;
            let obs = ev
                .get(t, id)
                .ok_or(BayesError::MissingHardEvidence { node: id, t })?;
            obs.validate(id, card)?;
            out.insert(id, obs.argmax(card));
        }
        Ok(out)
    }

    /// Assembles a parent configuration for `node`'s CPT: intra parents
    /// read from the current joint state (`cur`) or the hard map; temporal
    /// parents read from the previous joint state (`prev`).
    fn config(
        &self,
        node: NodeId,
        cur: usize,
        prev: Option<usize>,
        hard: &HashMap<NodeId, usize>,
        with_temporal: bool,
    ) -> Result<usize> {
        let def = &self.dbn.slice().nodes()[node];
        let mut vals: Vec<usize> = Vec::with_capacity(def.intra_parents.len() + 2);
        for &p in &def.intra_parents {
            if let Some(&v) = hard.get(&p) {
                vals.push(v);
            } else if self.hpos.contains_key(&p) {
                vals.push(self.value_of(cur, p));
            } else {
                // Observed parent without evidence would have been caught
                // in hard_values; hidden parents are always in hpos.
                return Err(BayesError::MissingHardEvidence { node: p, t: 0 });
            }
        }
        if with_temporal {
            let prev = prev.expect("temporal config requires previous state");
            for from in self.dbn.temporal_parents(node) {
                vals.push(self.value_of(prev, from));
            }
        }
        let cpt = if with_temporal {
            self.dbn.trans_cpt(node)
        } else {
            self.dbn.prior_cpt(node)
        };
        Ok(cpt.config_of(&vals))
    }

    /// Observation factor over hidden states for slice `t`: the product of
    /// every observed node's expected likelihood and of soft/hard clamps
    /// on hidden nodes.
    fn obs_factor(
        &self,
        ev: &EvidenceSeq,
        t: usize,
        hard: &HashMap<NodeId, usize>,
    ) -> Result<Vec<f64>> {
        let slice = self.dbn.slice();
        let mut out = vec![1.0; self.n_states];
        for (state, o) in out.iter_mut().enumerate() {
            let mut f = 1.0;
            // Observed nodes.
            for &e in &slice.observed_ids() {
                let card = slice.nodes()[e].card;
                let cpt = self.dbn.prior_cpt(e);
                let cfg = self.config(e, state, None, hard, false)?;
                match (hard.get(&e), ev.get(t, e)) {
                    (Some(&v), obs) => {
                        // Core observed: hardened value selects one CPT cell.
                        let lik = obs.map(|o| o.likelihood(v, card)).unwrap_or(1.0);
                        f *= cpt.prob(cfg, v) * lik;
                    }
                    (None, Some(obs)) => {
                        obs.validate(e, card)?;
                        let mut s = 0.0;
                        for v in 0..card {
                            s += cpt.prob(cfg, v) * obs.likelihood(v, card);
                        }
                        f *= s;
                    }
                    (None, None) => {} // unobserved leaf sums to 1
                }
            }
            // Clamps / soft evidence on hidden nodes.
            for &h in &self.hidden {
                if let Some(obs) = ev.get(t, h) {
                    let card = slice.nodes()[h].card;
                    obs.validate(h, card)?;
                    f *= obs.likelihood(self.value_of(state, h), card);
                }
            }
            *o = f;
        }
        Ok(out)
    }

    /// Prior joint vector at slice 0.
    fn prior_vec(&self, hard: &HashMap<NodeId, usize>) -> Result<Vec<f64>> {
        let mut out = vec![1.0; self.n_states];
        for (state, o) in out.iter_mut().enumerate() {
            let mut p = 1.0;
            for &h in &self.hidden {
                let cfg = self.config(h, state, None, hard, false)?;
                p *= self.dbn.prior_cpt(h).prob(cfg, self.value_of(state, h));
            }
            *o = p;
        }
        Ok(out)
    }

    /// Transition matrix for slice `t` (t ≥ 1), row-major
    /// `m[prev * n_states + cur]`.
    fn trans_matrix(&self, hard: &HashMap<NodeId, usize>) -> Result<Vec<f64>> {
        let n = self.n_states;
        let mut m = vec![1.0; n * n];
        for prev in 0..n {
            for cur in 0..n {
                let mut p = 1.0;
                for &h in &self.hidden {
                    let cfg = self.config(h, cur, Some(prev), hard, true)?;
                    p *= self.dbn.trans_cpt(h).prob(cfg, self.value_of(cur, h));
                }
                m[prev * n + cur] = p;
            }
        }
        Ok(m)
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

    /// Boyen–Koller projection: replaces a joint belief by the product of
    /// its marginals over `clusters` (a partition of the hidden nodes).
    pub fn project(&self, belief: &mut [f64], clusters: &[Vec<NodeId>]) -> Result<()> {
        self.validate_clusters(clusters)?;
        if clusters.len() <= 1 {
            return Ok(()); // single cluster: projection is the identity
        }
        let mut cluster_margs: Vec<(Vec<NodeId>, Vec<f64>)> = Vec::with_capacity(clusters.len());
        for cluster in clusters {
            let size: usize = cluster.iter().map(|&n| self.cards[self.hpos[&n]]).product();
            let mut marg = vec![0.0; size];
            for (state, w) in belief.iter().enumerate() {
                let mut idx = 0;
                let mut stride = 1;
                for &n in cluster {
                    idx += self.value_of(state, n) * stride;
                    stride *= self.cards[self.hpos[&n]];
                }
                marg[idx] += w;
            }
            cluster_margs.push((cluster.clone(), marg));
        }
        for (state, w) in belief.iter_mut().enumerate() {
            let mut p = 1.0;
            for (cluster, marg) in &cluster_margs {
                let mut idx = 0;
                let mut stride = 1;
                for &n in cluster {
                    idx += self.value_of(state, n) * stride;
                    stride *= self.cards[self.hpos[&n]];
                }
                p *= marg[idx];
            }
            *w = p;
        }
        Self::normalize(belief)?;
        Ok(())
    }

    fn validate_clusters(&self, clusters: &[Vec<NodeId>]) -> Result<()> {
        let mut seen = std::collections::HashSet::new();
        for cluster in clusters {
            for &n in cluster {
                if !self.hpos.contains_key(&n) {
                    return Err(BayesError::BadClusters(format!(
                        "node {n} is not a hidden node"
                    )));
                }
                if !seen.insert(n) {
                    return Err(BayesError::BadClusters(format!("node {n} appears twice")));
                }
            }
        }
        if seen.len() != self.hidden.len() {
            return Err(BayesError::BadClusters(format!(
                "{} of {} hidden nodes covered",
                seen.len(),
                self.hidden.len()
            )));
        }
        Ok(())
    }

    /// Starts a resumable Boyen–Koller filter over this engine. With
    /// `clusters = None` (or one cluster) each step is exact; otherwise
    /// the BK projection is applied after every step. The returned
    /// [`BkState`] absorbs evidence one slice at a time — the online
    /// form of [`Engine::filter`], which is built on top of it.
    pub fn stepper(&self, clusters: Option<&[Vec<NodeId>]>) -> Result<BkState<'_, 'a>> {
        if let Some(c) = clusters {
            self.validate_clusters(c)?;
        }
        Ok(BkState {
            engine: self,
            clusters: clusters.map(|c| c.to_vec()),
            alpha: Vec::new(),
            steps: 0,
            loglik: 0.0,
            cached_trans: None,
        })
    }

    /// Forward filtering. With `clusters = None` (or one cluster) this is
    /// exact; otherwise the Boyen–Koller projection is applied after every
    /// step — the paper's "modified Boyen-Koller algorithm for approximate
    /// inference". Implemented by driving [`Engine::stepper`] over every
    /// slice, so batch and online filtering cannot drift apart.
    pub fn filter(&self, ev: &EvidenceSeq, clusters: Option<&[Vec<NodeId>]>) -> Result<Posteriors> {
        if ev.is_empty() {
            return Err(BayesError::EmptySequence);
        }
        let mut state = self.stepper(clusters)?;
        let mut beliefs = Vec::with_capacity(ev.len());
        for t in 0..ev.len() {
            beliefs.push(state.step(ev, t)?);
        }
        Ok(Posteriors {
            hidden: self.hidden.clone(),
            cards: self.cards.clone(),
            strides: self.strides.clone(),
            loglik: state.loglik(),
            beliefs,
        })
    }

    /// Exact forward-backward smoothing, returning per-slice posteriors
    /// γ_t and pairwise posteriors ξ_t (the EM E-step quantities).
    pub fn smooth(&self, ev: &EvidenceSeq) -> Result<Smoothed> {
        if ev.is_empty() {
            return Err(BayesError::EmptySequence);
        }
        let tlen = ev.len();
        let n = self.n_states;
        // Forward pass, keeping scaled alphas, per-step observation
        // factors and transition matrices.
        let mut alphas: Vec<Vec<f64>> = Vec::with_capacity(tlen);
        let mut obs_factors: Vec<Vec<f64>> = Vec::with_capacity(tlen);
        let mut transes: Vec<Vec<f64>> = Vec::with_capacity(tlen.saturating_sub(1));
        let mut cached_trans: Option<Vec<f64>> = None;
        let mut loglik = 0.0;

        let hard0 = self.hard_values(ev, 0)?;
        let mut alpha = self.prior_vec(&hard0)?;
        let obs0 = self.obs_factor(ev, 0, &hard0)?;
        for (x, o) in alpha.iter_mut().zip(&obs0) {
            *x *= o;
        }
        loglik += Self::normalize(&mut alpha)?.ln();
        alphas.push(alpha.clone());
        obs_factors.push(obs0);

        for t in 1..tlen {
            let hard = self.hard_values(ev, t)?;
            let trans = if self.time_varying {
                self.trans_matrix(&hard)?
            } else {
                match &cached_trans {
                    Some(m) => m.clone(),
                    None => {
                        let m = self.trans_matrix(&hard)?;
                        cached_trans = Some(m.clone());
                        m
                    }
                }
            };
            let obs = self.obs_factor(ev, t, &hard)?;
            let mut next = vec![0.0; n];
            for prev in 0..n {
                let w = alpha[prev];
                if w == 0.0 {
                    continue;
                }
                let row = &trans[prev * n..(prev + 1) * n];
                for cur in 0..n {
                    next[cur] += w * row[cur];
                }
            }
            for (x, o) in next.iter_mut().zip(&obs) {
                *x *= o;
            }
            loglik += Self::normalize(&mut next)?.ln();
            alpha = next;
            alphas.push(alpha.clone());
            obs_factors.push(obs);
            transes.push(trans);
        }

        // Backward pass.
        let mut betas: Vec<Vec<f64>> = vec![vec![1.0; n]; tlen];
        for t in (0..tlen - 1).rev() {
            let trans = &transes[t];
            let obs = &obs_factors[t + 1];
            let bnext = betas[t + 1].clone();
            let mut b = vec![0.0; n];
            for prev in 0..n {
                let row = &trans[prev * n..(prev + 1) * n];
                let mut s = 0.0;
                for cur in 0..n {
                    s += row[cur] * obs[cur] * bnext[cur];
                }
                b[prev] = s;
            }
            Self::normalize(&mut b)?;
            betas[t] = b;
        }

        // Gammas and xis.
        let mut beliefs = Vec::with_capacity(tlen);
        for t in 0..tlen {
            let mut g: Vec<f64> = alphas[t]
                .iter()
                .zip(&betas[t])
                .map(|(a, b)| a * b)
                .collect();
            Self::normalize(&mut g)?;
            beliefs.push(g);
        }
        let mut xi = Vec::with_capacity(tlen.saturating_sub(1));
        for t in 0..tlen.saturating_sub(1) {
            let trans = &transes[t];
            let obs = &obs_factors[t + 1];
            let mut x = vec![0.0; n * n];
            for prev in 0..n {
                let a = alphas[t][prev];
                if a == 0.0 {
                    continue;
                }
                let row = &trans[prev * n..(prev + 1) * n];
                for cur in 0..n {
                    x[prev * n + cur] = a * row[cur] * obs[cur] * betas[t + 1][cur];
                }
            }
            Self::normalize(&mut x)?;
            xi.push(x);
        }

        Ok(Smoothed {
            gamma: Posteriors {
                hidden: self.hidden.clone(),
                cards: self.cards.clone(),
                strides: self.strides.clone(),
                loglik,
                beliefs,
            },
            xi,
            n_states: n,
        })
    }

    /// Log-likelihood of an evidence sequence under the model.
    pub fn loglik(&self, ev: &EvidenceSeq) -> Result<f64> {
        Ok(self.filter(ev, None)?.loglik)
    }

    /// Joint-state value of `node` in engine state `state` (exposed for
    /// EM and tests).
    pub fn state_value(&self, state: usize, node: NodeId) -> usize {
        self.value_of(state, node)
    }

    /// Parent configuration helper exposed for EM (same semantics as the
    /// engine's internal CPT indexing).
    pub fn parent_config(
        &self,
        node: NodeId,
        cur: usize,
        prev: Option<usize>,
        hard: &HashMap<NodeId, usize>,
        with_temporal: bool,
    ) -> Result<usize> {
        self.config(node, cur, prev, hard, with_temporal)
    }

    /// Hard values of core-observed nodes (exposed for EM).
    pub fn hard_map(&self, ev: &EvidenceSeq, t: usize) -> Result<HashMap<NodeId, usize>> {
        self.hard_values(ev, t)
    }
}
