//! Brute-force enumeration over the unrolled network — a test oracle.
//!
//! For tiny networks and short sequences this module computes posteriors
//! by enumerating *every* joint configuration of *every* node across all
//! slices. It is exponentially slow on purpose: its only job is to verify
//! the production engine (`f1_bayes::engine::Engine`) and the EM E-step
//! on hand-checkable cases, in `properties.rs` and in its own tests.

use f1_bayes::dbn::Dbn;
use f1_bayes::evidence::{EvidenceSeq, Obs};
use f1_bayes::slice::NodeId;
use f1_bayes::{BayesError, Result};

/// One joint configuration: `cfg[t][n]` is node `n`'s state at slice `t`.
type JointConfig = Vec<Vec<usize>>;

/// Enumerates all joint configurations and their unnormalized weights.
///
/// Returns `(configs, weights)` where `configs[i][t][n]` is the state of
/// node `n` at slice `t` in configuration `i`.
fn enumerate(dbn: &Dbn, ev: &EvidenceSeq) -> Result<(Vec<JointConfig>, Vec<f64>)> {
    if ev.is_empty() {
        return Err(BayesError::EmptySequence);
    }
    let tlen = ev.len();
    let n = dbn.slice().len();
    let cards: Vec<usize> = dbn.slice().nodes().iter().map(|nd| nd.card).collect();
    let total: usize = cards.iter().map(|c| c.pow(tlen as u32)).product::<usize>();
    assert!(
        total <= 1 << 22,
        "exact enumeration limited to small problems (got {total} configs)"
    );

    let mut configs = Vec::with_capacity(total);
    let mut weights = Vec::with_capacity(total);
    // Mixed-radix counter over (slice, node) cells.
    let mut counter = vec![vec![0usize; n]; tlen];
    loop {
        let w = weight_of(dbn, ev, &counter)?;
        configs.push(counter.clone());
        weights.push(w);
        // Increment.
        let mut done = true;
        'inc: for row in counter.iter_mut().take(tlen) {
            for i in 0..n {
                row[i] += 1;
                if row[i] < cards[i] {
                    done = false;
                    break 'inc;
                }
                row[i] = 0;
            }
        }
        if done {
            break;
        }
    }
    Ok((configs, weights))
}

fn weight_of(dbn: &Dbn, ev: &EvidenceSeq, config: &[Vec<usize>]) -> Result<f64> {
    let slice = dbn.slice();
    let mut w = 1.0;
    for (t, states) in config.iter().enumerate() {
        for (id, node) in slice.nodes().iter().enumerate() {
            let mut pa: Vec<usize> = node.intra_parents.iter().map(|&p| states[p]).collect();
            let cpt = if t == 0 {
                dbn.prior_cpt(id)
            } else {
                for from in dbn.temporal_parents(id) {
                    pa.push(config[t - 1][from]);
                }
                dbn.trans_cpt(id)
            };
            w *= cpt.prob(cpt.config_of(&pa), states[id]);
            if let Some(obs) = ev.get(t, id) {
                w *= match obs {
                    Obs::Hard(s) => {
                        if *s == states[id] {
                            1.0
                        } else {
                            0.0
                        }
                    }
                    Obs::Soft(lik) => lik[states[id]],
                };
            }
            if w == 0.0 {
                return Ok(0.0);
            }
        }
    }
    Ok(w)
}

/// Exact smoothed posterior of `node` at slice `t`.
pub fn posterior(dbn: &Dbn, ev: &EvidenceSeq, t: usize, node: NodeId) -> Result<Vec<f64>> {
    let card = dbn.slice().node(node)?.card;
    let (configs, weights) = enumerate(dbn, ev)?;
    let mut out = vec![0.0; card];
    let mut total = 0.0;
    for (cfg, w) in configs.iter().zip(&weights) {
        out[cfg[t][node]] += w;
        total += w;
    }
    if total.is_nan() || total <= 0.0 {
        return Err(BayesError::Numerical("zero total probability".into()));
    }
    for v in &mut out {
        *v /= total;
    }
    Ok(out)
}

/// Exact log-likelihood of the evidence.
pub fn loglik(dbn: &Dbn, ev: &EvidenceSeq) -> Result<f64> {
    let (_, weights) = enumerate(dbn, ev)?;
    let total: f64 = weights.iter().sum();
    if total.is_nan() || total <= 0.0 {
        return Err(BayesError::Numerical("zero total probability".into()));
    }
    Ok(total.ln())
}

#[cfg(test)]
mod tests {
    use super::*;
    use f1_bayes::cpt::Cpt;
    use f1_bayes::engine::Engine;
    use f1_bayes::slice::SliceNet;

    fn hmm_like() -> Dbn {
        let mut s = SliceNet::new();
        let ea = s.hidden("EA", 2, &[]);
        let kw = s.observed("Kw", 2, &[ea]);
        let mut d = Dbn::new(s, vec![(ea, ea)]).unwrap();
        d.set_prior_cpt(ea, Cpt::binary(vec![], &[0.3]).unwrap())
            .unwrap();
        d.set_trans_cpt(ea, Cpt::binary(vec![2], &[0.15, 0.75]).unwrap())
            .unwrap();
        d.set_cpt(kw, Cpt::binary(vec![2], &[0.2, 0.6]).unwrap())
            .unwrap();
        d
    }

    /// Two hidden nodes with intra-slice coupling and crossing temporal
    /// edges — exercises every indexing path.
    fn two_hidden() -> Dbn {
        let mut s = SliceNet::new();
        let a = s.hidden("A", 2, &[]);
        let b = s.hidden("B", 2, &[a]);
        let e1 = s.observed("E1", 2, &[a]);
        let e2 = s.observed("E2", 2, &[b]);
        let mut d = Dbn::new(s, vec![(a, a), (a, b), (b, b)]).unwrap();
        d.set_prior_cpt(a, Cpt::binary(vec![], &[0.4]).unwrap())
            .unwrap();
        d.set_prior_cpt(b, Cpt::binary(vec![2], &[0.2, 0.7]).unwrap())
            .unwrap();
        // A_t | A_t-1 ; B_t | A_t, A_t-1, B_t-1
        d.set_trans_cpt(a, Cpt::binary(vec![2], &[0.1, 0.85]).unwrap())
            .unwrap();
        d.set_trans_cpt(
            b,
            Cpt::binary(vec![2, 2, 2], &[0.05, 0.3, 0.4, 0.6, 0.2, 0.5, 0.7, 0.95]).unwrap(),
        )
        .unwrap();
        d.set_cpt(e1, Cpt::binary(vec![2], &[0.25, 0.8]).unwrap())
            .unwrap();
        d.set_cpt(e2, Cpt::binary(vec![2], &[0.1, 0.65]).unwrap())
            .unwrap();
        d
    }

    #[test]
    fn engine_smoothing_matches_enumeration_hmm() {
        let d = hmm_like();
        let eng = Engine::new(&d).unwrap();
        let mut ev = EvidenceSeq::new(3);
        ev.set(0, 1, Obs::Hard(1));
        ev.set_prob(1, 1, 0.4);
        ev.set(2, 1, Obs::Hard(0));
        let smo = eng.smooth(&ev).unwrap();
        for t in 0..3 {
            let exact = posterior(&d, &ev, t, 0).unwrap();
            let fast = smo.gamma.marginal(t, 0).unwrap();
            for s in 0..2 {
                assert!(
                    (exact[s] - fast[s]).abs() < 1e-10,
                    "t={t} s={s}: exact={} fast={}",
                    exact[s],
                    fast[s]
                );
            }
        }
        let ll = loglik(&d, &ev).unwrap();
        assert!((ll - smo.gamma.loglik).abs() < 1e-10);
    }

    #[test]
    fn engine_matches_enumeration_on_coupled_net() {
        let d = two_hidden();
        let eng = Engine::new(&d).unwrap();
        let mut ev = EvidenceSeq::new(3);
        ev.set_prob(0, 2, 0.9);
        ev.set_prob(0, 3, 0.2);
        ev.set(1, 2, Obs::Hard(0));
        ev.set_prob(1, 3, 0.7);
        ev.set_prob(2, 2, 0.5);
        ev.set(2, 3, Obs::Hard(1));
        let smo = eng.smooth(&ev).unwrap();
        for t in 0..3 {
            for node in [0usize, 1] {
                let exact = posterior(&d, &ev, t, node).unwrap();
                let fast = smo.gamma.marginal(t, node).unwrap();
                assert!(
                    (exact[1] - fast[1]).abs() < 1e-10,
                    "t={t} node={node}: exact={} fast={}",
                    exact[1],
                    fast[1]
                );
            }
        }
    }

    #[test]
    fn filtered_last_slice_equals_smoothed_last_slice() {
        let d = two_hidden();
        let eng = Engine::new(&d).unwrap();
        let mut ev = EvidenceSeq::new(4);
        for t in 0..4 {
            ev.set_prob(t, 2, 0.3 + 0.15 * t as f64);
            ev.set_prob(t, 3, 0.8 - 0.1 * t as f64);
        }
        let filt = eng.filter(&ev, None).unwrap();
        let smo = eng.smooth(&ev).unwrap();
        let a = filt.marginal(3, 0).unwrap();
        let b = smo.gamma.marginal(3, 0).unwrap();
        assert!((a[1] - b[1]).abs() < 1e-10);
    }

    #[test]
    fn hidden_clamps_match_enumeration() {
        let d = two_hidden();
        let eng = Engine::new(&d).unwrap();
        let mut ev = EvidenceSeq::new(2);
        ev.set(0, 0, Obs::Hard(1)); // clamp hidden A at t=0
        ev.set_prob(1, 3, 0.9);
        let smo = eng.smooth(&ev).unwrap();
        for t in 0..2 {
            let exact = posterior(&d, &ev, t, 1).unwrap();
            let fast = smo.gamma.marginal(t, 1).unwrap();
            assert!((exact[1] - fast[1]).abs() < 1e-10);
        }
    }
}
