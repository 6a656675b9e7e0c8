//! The discrete-observation HMM and its core algorithms.

use rand::Rng;

use crate::{HmmError, Result};

/// A discrete HMM λ = (A, B, π): `n` hidden states, `m` observation
/// symbols. Rows of A and B are probability distributions.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteHmm {
    n: usize,
    m: usize,
    /// Transition matrix, row-major `a[i * n + j] = P(j at t+1 | i at t)`.
    a: Vec<f64>,
    /// Emission matrix, row-major `b[i * m + k] = P(symbol k | state i)`.
    b: Vec<f64>,
    /// Initial distribution.
    pi: Vec<f64>,
}

fn check_rows(rows: &[f64], cols: usize, what: &str) -> Result<()> {
    for (r, row) in rows.chunks(cols).enumerate() {
        let s: f64 = row.iter().sum();
        if s.is_nan() || s <= 0.0 || row.iter().any(|&v| v < 0.0) {
            return Err(HmmError::BadDistribution(format!(
                "{what} row {r} is not a distribution (sum {s})"
            )));
        }
    }
    Ok(())
}

fn normalize_rows(rows: &mut [f64], cols: usize) {
    for row in rows.chunks_mut(cols) {
        let s: f64 = row.iter().sum();
        if s > 0.0 {
            for v in row {
                *v /= s;
            }
        }
    }
}

impl DiscreteHmm {
    /// Builds a model from explicit tables (rows are normalized).
    pub fn new(n: usize, m: usize, a: Vec<f64>, b: Vec<f64>, pi: Vec<f64>) -> Result<Self> {
        if a.len() != n * n {
            return Err(HmmError::Shape(format!(
                "A has {} entries, need {}",
                a.len(),
                n * n
            )));
        }
        if b.len() != n * m {
            return Err(HmmError::Shape(format!(
                "B has {} entries, need {}",
                b.len(),
                n * m
            )));
        }
        if pi.len() != n {
            return Err(HmmError::Shape(format!(
                "pi has {} entries, need {n}",
                pi.len()
            )));
        }
        check_rows(&a, n, "A")?;
        check_rows(&b, m, "B")?;
        check_rows(&pi, n, "pi")?;
        let mut model = DiscreteHmm { n, m, a, b, pi };
        normalize_rows(&mut model.a, n);
        normalize_rows(&mut model.b, m);
        normalize_rows(&mut model.pi, n);
        Ok(model)
    }

    /// A uniform model.
    pub fn uniform(n: usize, m: usize) -> Self {
        DiscreteHmm {
            n,
            m,
            a: vec![1.0 / n as f64; n * n],
            b: vec![1.0 / m as f64; n * m],
            pi: vec![1.0 / n as f64; n],
        }
    }

    /// A random model (rows jittered around uniform) — the usual
    /// Baum–Welch starting point.
    pub fn random(n: usize, m: usize, rng: &mut impl Rng) -> Self {
        let mut model = DiscreteHmm::uniform(n, m);
        for v in model
            .a
            .iter_mut()
            .chain(model.b.iter_mut())
            .chain(model.pi.iter_mut())
        {
            *v = 0.2 + rng.gen::<f64>();
        }
        normalize_rows(&mut model.a, n);
        normalize_rows(&mut model.b, m);
        normalize_rows(&mut model.pi, n);
        model
    }

    /// Number of hidden states.
    pub fn n_states(&self) -> usize {
        self.n
    }

    /// Alphabet size.
    pub fn n_symbols(&self) -> usize {
        self.m
    }

    /// `P(state j at t+1 | state i at t)`.
    pub fn a(&self, i: usize, j: usize) -> f64 {
        self.a[i * self.n + j]
    }

    /// `P(symbol k | state i)`.
    pub fn b(&self, i: usize, k: usize) -> f64 {
        self.b[i * self.m + k]
    }

    /// Initial probability of state `i`.
    pub fn pi(&self, i: usize) -> f64 {
        self.pi[i]
    }

    pub(crate) fn tables_mut(&mut self) -> (&mut [f64], &mut [f64], &mut [f64]) {
        (&mut self.a, &mut self.b, &mut self.pi)
    }

    pub(crate) fn renormalize(&mut self) {
        normalize_rows(&mut self.a, self.n);
        normalize_rows(&mut self.b, self.m);
        normalize_rows(&mut self.pi, self.n);
    }

    fn check_obs(&self, obs: &[usize]) -> Result<()> {
        if obs.is_empty() {
            return Err(HmmError::EmptySequence);
        }
        for &o in obs {
            if o >= self.m {
                return Err(HmmError::BadSymbol {
                    symbol: o,
                    alphabet: self.m,
                });
            }
        }
        Ok(())
    }

    /// Scaled forward pass; returns per-step scaled alphas and scale
    /// factors. `log P(obs) = Σ ln c_t`.
    pub(crate) fn forward(&self, obs: &[usize]) -> Result<(Vec<Vec<f64>>, Vec<f64>)> {
        self.check_obs(obs)?;
        let n = self.n;
        let mut alphas = Vec::with_capacity(obs.len());
        let mut scales = Vec::with_capacity(obs.len());
        let mut alpha: Vec<f64> = (0..n).map(|i| self.pi(i) * self.b(i, obs[0])).collect();
        let c: f64 = alpha.iter().sum();
        if c.is_nan() || c <= 0.0 {
            return Err(HmmError::Numerical("zero-probability prefix at t=0".into()));
        }
        for v in &mut alpha {
            *v /= c;
        }
        scales.push(c);
        alphas.push(alpha.clone());
        for &o in &obs[1..] {
            let mut next = vec![0.0; n];
            for (i, &ai) in alpha.iter().enumerate() {
                if ai == 0.0 {
                    continue;
                }
                for (j, nj) in next.iter_mut().enumerate() {
                    *nj += ai * self.a(i, j);
                }
            }
            for (j, v) in next.iter_mut().enumerate() {
                *v *= self.b(j, o);
            }
            let c: f64 = next.iter().sum();
            if c.is_nan() || c <= 0.0 {
                return Err(HmmError::Numerical("zero-probability prefix".into()));
            }
            for v in &mut next {
                *v /= c;
            }
            scales.push(c);
            alpha = next;
            alphas.push(alpha.clone());
        }
        Ok((alphas, scales))
    }

    /// Scaled backward pass, reusing the forward scale factors.
    pub(crate) fn backward(&self, obs: &[usize], scales: &[f64]) -> Result<Vec<Vec<f64>>> {
        self.check_obs(obs)?;
        let n = self.n;
        let tlen = obs.len();
        let mut betas = vec![vec![1.0; n]; tlen];
        for t in (0..tlen - 1).rev() {
            let o = obs[t + 1];
            let mut b = vec![0.0; n];
            for (i, bi) in b.iter_mut().enumerate() {
                let mut s = 0.0;
                for (j, &bj) in betas[t + 1].iter().enumerate() {
                    s += self.a(i, j) * self.b(j, o) * bj;
                }
                *bi = s / scales[t + 1];
            }
            betas[t] = b;
        }
        Ok(betas)
    }

    /// `ln P(obs | λ)` — the evaluation operation the paper distributes
    /// over six HMM servers.
    pub fn log_likelihood(&self, obs: &[usize]) -> Result<f64> {
        let (_, scales) = self.forward(obs)?;
        Ok(scales.iter().map(|c| c.ln()).sum())
    }

    /// Viterbi decoding: the most probable state path and its log
    /// probability.
    pub fn viterbi(&self, obs: &[usize]) -> Result<(Vec<usize>, f64)> {
        self.check_obs(obs)?;
        let n = self.n;
        let tlen = obs.len();
        let neg = f64::NEG_INFINITY;
        let logp = |p: f64| if p > 0.0 { p.ln() } else { neg };
        let mut delta: Vec<f64> = (0..n)
            .map(|i| logp(self.pi(i)) + logp(self.b(i, obs[0])))
            .collect();
        let mut back: Vec<Vec<usize>> = Vec::with_capacity(tlen);
        back.push(vec![0; n]);
        for &o in &obs[1..] {
            let mut next = vec![neg; n];
            let mut ptr = vec![0; n];
            for j in 0..n {
                let emit = logp(self.b(j, o));
                if emit == neg {
                    continue;
                }
                for (i, &di) in delta.iter().enumerate() {
                    let cand = di + logp(self.a(i, j)) + emit;
                    if cand > next[j] {
                        next[j] = cand;
                        ptr[j] = i;
                    }
                }
            }
            delta = next;
            back.push(ptr);
        }
        let (mut best, mut best_lp) = (0, neg);
        for (i, &lp) in delta.iter().enumerate() {
            if lp > best_lp {
                best = i;
                best_lp = lp;
            }
        }
        if best_lp == neg {
            return Err(HmmError::Numerical("no positive-probability path".into()));
        }
        let mut path = vec![0; tlen];
        path[tlen - 1] = best;
        for t in (1..tlen).rev() {
            path[t - 1] = back[t][path[t]];
        }
        Ok((path, best_lp))
    }

    /// Samples a (states, observations) pair of length `len`.
    pub fn sample(&self, len: usize, rng: &mut impl Rng) -> (Vec<usize>, Vec<usize>) {
        let draw = |dist: &[f64], rng: &mut dyn rand::RngCore| -> usize {
            let mut r: f64 = rand::Rng::gen(rng);
            for (i, &p) in dist.iter().enumerate() {
                if r < p {
                    return i;
                }
                r -= p;
            }
            dist.len() - 1
        };
        let mut states = Vec::with_capacity(len);
        let mut obs = Vec::with_capacity(len);
        let mut s = draw(&self.pi, rng);
        for _ in 0..len {
            states.push(s);
            obs.push(draw(&self.b[s * self.m..(s + 1) * self.m], rng));
            s = draw(&self.a[s * self.n..(s + 1) * self.n], rng);
        }
        (states, obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2-state model where state 0 emits symbol 0 and state 1 emits 1,
    /// with sticky transitions.
    fn sticky() -> DiscreteHmm {
        DiscreteHmm::new(
            2,
            2,
            vec![0.9, 0.1, 0.1, 0.9],
            vec![0.95, 0.05, 0.05, 0.95],
            vec![0.5, 0.5],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_shapes() {
        assert!(DiscreteHmm::new(2, 2, vec![1.0; 3], vec![1.0; 4], vec![0.5, 0.5]).is_err());
        assert!(DiscreteHmm::new(2, 2, vec![1.0; 4], vec![1.0; 3], vec![0.5, 0.5]).is_err());
        assert!(DiscreteHmm::new(2, 2, vec![1.0; 4], vec![1.0; 4], vec![0.5]).is_err());
        assert!(
            DiscreteHmm::new(2, 2, vec![0.0, 0.0, 1.0, 1.0], vec![1.0; 4], vec![0.5, 0.5]).is_err()
        );
    }

    #[test]
    fn rows_are_normalized_on_construction() {
        let m = DiscreteHmm::new(
            2,
            2,
            vec![3.0, 1.0, 1.0, 1.0],
            vec![1.0, 1.0, 1.0, 3.0],
            vec![1.0, 3.0],
        )
        .unwrap();
        assert!((m.a(0, 0) - 0.75).abs() < 1e-12);
        assert!((m.b(1, 1) - 0.75).abs() < 1e-12);
        assert!((m.pi(1) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn loglik_matches_hand_computation_t1() {
        let m = sticky();
        // P(obs=[0]) = 0.5*0.95 + 0.5*0.05 = 0.5
        let ll = m.log_likelihood(&[0]).unwrap();
        assert!((ll - 0.5f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn loglik_matches_brute_force_t3() {
        let m = sticky();
        let obs = [0usize, 1, 1];
        // Brute force over 8 state paths.
        let mut p = 0.0;
        for s0 in 0..2 {
            for s1 in 0..2 {
                for s2 in 0..2 {
                    p += m.pi(s0)
                        * m.b(s0, obs[0])
                        * m.a(s0, s1)
                        * m.b(s1, obs[1])
                        * m.a(s1, s2)
                        * m.b(s2, obs[2]);
                }
            }
        }
        assert!((m.log_likelihood(&obs).unwrap() - p.ln()).abs() < 1e-12);
    }

    #[test]
    fn consistent_sequence_scores_higher() {
        let m = sticky();
        let good = m.log_likelihood(&[0, 0, 0, 1, 1, 1]).unwrap();
        let bad = m.log_likelihood(&[0, 1, 0, 1, 0, 1]).unwrap();
        assert!(good > bad);
    }

    #[test]
    fn viterbi_tracks_emissions_on_sticky_model() {
        let m = sticky();
        let (path, lp) = m.viterbi(&[0, 0, 1, 1, 1, 0]).unwrap();
        assert_eq!(path, vec![0, 0, 1, 1, 1, 0]);
        assert!(lp < 0.0);
    }

    #[test]
    fn viterbi_logprob_le_total_loglik() {
        let m = sticky();
        let obs = [0usize, 1, 0, 0, 1];
        let (_, lp) = m.viterbi(&obs).unwrap();
        let ll = m.log_likelihood(&obs).unwrap();
        assert!(lp <= ll + 1e-12);
    }

    #[test]
    fn invalid_observations_are_rejected() {
        let m = sticky();
        assert_eq!(m.log_likelihood(&[]), Err(HmmError::EmptySequence));
        assert_eq!(
            m.log_likelihood(&[0, 5]),
            Err(HmmError::BadSymbol {
                symbol: 5,
                alphabet: 2
            })
        );
    }

    #[test]
    fn impossible_sequence_is_a_numerical_error() {
        let m = DiscreteHmm::new(
            1,
            2,
            vec![1.0],
            vec![1.0, 0.0], // never emits symbol 1
            vec![1.0],
        )
        .unwrap();
        assert!(matches!(
            m.log_likelihood(&[1]),
            Err(HmmError::Numerical(_))
        ));
        assert!(matches!(m.viterbi(&[1]), Err(HmmError::Numerical(_))));
    }

    #[test]
    fn backward_is_consistent_with_forward() {
        // Identity: sum_i alpha_t(i) * beta_t(i) == 1 for scaled passes.
        let m = sticky();
        let obs = [0usize, 1, 1, 0, 0];
        let (alphas, scales) = m.forward(&obs).unwrap();
        let betas = m.backward(&obs, &scales).unwrap();
        for t in 0..obs.len() {
            let s: f64 = alphas[t].iter().zip(&betas[t]).map(|(a, b)| a * b).sum();
            assert!((s - 1.0).abs() < 1e-9, "t={t}: {s}");
        }
    }

    #[test]
    fn sampling_respects_emission_structure() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let m = sticky();
        let mut rng = StdRng::seed_from_u64(99);
        let (states, obs) = m.sample(2000, &mut rng);
        let matches = states.iter().zip(&obs).filter(|(s, o)| s == o).count();
        assert!(matches as f64 / 2000.0 > 0.9);
    }
}
