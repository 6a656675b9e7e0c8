//! Expectation-Maximization parameter learning.
//!
//! The paper learns both BN and DBN parameters with EM ("as we work with
//! DBNs that have hidden states, we employ the Expectation Maximization
//! learning algorithm", §4). This module implements EM with:
//!
//! * hidden nodes (the E-step uses exact forward-backward smoothing from
//!   [`crate::engine::Engine::smooth`]),
//! * **tied transition parameters** across time slices (a 2-TBN),
//! * soft evidence — expected counts for evidence nodes are weighted by
//!   the per-state posterior implied by the likelihood vector,
//! * optional clamping: hard evidence on hidden nodes simply enters the
//!   sequence, enabling partially supervised training,
//! * Dirichlet pseudocounts for MAP smoothing of sparse rows.
//!
//! A static BN is trained by pooling every slice's posterior into the
//! prior CPT counts (slices are independent when there are no temporal
//! edges).

use crate::cpt::CptCounts;
use crate::dbn::Dbn;
use crate::engine::Engine;
use crate::evidence::EvidenceSeq;
use crate::{BayesError, Result};
use cobra_faults::FaultHandle;

/// EM hyper-parameters.
#[derive(Debug, Clone)]
pub struct EmConfig {
    /// Maximum number of EM iterations.
    pub max_iters: usize,
    /// Relative log-likelihood improvement below which EM stops.
    pub tol: f64,
    /// Dirichlet pseudocount added to every CPT cell in the M-step.
    pub pseudocount: f64,
}

impl Default for EmConfig {
    fn default() -> Self {
        EmConfig {
            max_iters: 20,
            tol: 1e-4,
            pseudocount: 0.05,
        }
    }
}

/// What EM did.
#[derive(Debug, Clone)]
pub struct EmReport {
    /// Number of completed iterations.
    pub iterations: usize,
    /// Total training log-likelihood after each iteration's E-step.
    pub logliks: Vec<f64>,
    /// True when the tolerance criterion stopped EM before `max_iters`.
    pub converged: bool,
}

/// Runs EM on `dbn` over the training `sequences`, updating its CPTs in
/// place.
pub fn train(dbn: &mut Dbn, sequences: &[EvidenceSeq], cfg: &EmConfig) -> Result<EmReport> {
    train_with_faults(dbn, sequences, cfg, &FaultHandle::default())
}

/// [`train`] with the caller's fault injector behind the `em.iteration`
/// site (the VDBMS passes its own, so a test arming one system aborts
/// that system's training and no other).
pub fn train_with_faults(
    dbn: &mut Dbn,
    sequences: &[EvidenceSeq],
    cfg: &EmConfig,
    faults: &FaultHandle,
) -> Result<EmReport> {
    if sequences.is_empty() || sequences.iter().all(|s| s.is_empty()) {
        return Err(BayesError::EmptySequence);
    }
    let n_nodes = dbn.slice().len();
    let mut logliks = Vec::new();
    let mut converged = false;

    for iter in 0..cfg.max_iters {
        // Fault site `em.iteration`: tests can abort training at a
        // scripted iteration. An injected or numerical failure leaves
        // the CPTs at their last completed iteration.
        if faults.is_armed() {
            if let Err(e) = faults.fire("em.iteration") {
                return Err(BayesError::EmDiverged {
                    iteration: iter,
                    message: e.to_string(),
                });
            }
        }
        // E-step.
        let mut prior_counts: Vec<CptCounts> = (0..n_nodes)
            .map(|id| dbn.prior_cpt(id).zero_counts())
            .collect();
        let mut trans_counts: Vec<CptCounts> = (0..n_nodes)
            .map(|id| dbn.trans_cpt(id).zero_counts())
            .collect();
        let mut total_ll = 0.0;
        let engine = Engine::new(dbn)?;
        for seq in sequences.iter().filter(|s| !s.is_empty()) {
            total_ll += accumulate(dbn, &engine, seq, &mut prior_counts, &mut trans_counts)?;
        }
        if !total_ll.is_finite() {
            // A NaN/-inf log-likelihood means the parameters (or the
            // evidence) broke the model; iterating further only smears
            // NaNs through every CPT.
            return Err(BayesError::EmDiverged {
                iteration: iter,
                message: format!("log-likelihood became non-finite ({total_ll})"),
            });
        }
        logliks.push(total_ll);

        // M-step.
        let is_static = dbn.is_static();
        for id in 0..n_nodes {
            let node_observed = dbn.slice().nodes()[id].observed;
            let mut prior = dbn.prior_cpt(id).clone();
            prior.set_from_counts(&prior_counts[id], cfg.pseudocount);
            dbn.set_prior_cpt(id, prior.clone())?;
            if is_static || (node_observed && dbn.temporal_parents(id).is_empty()) {
                // Tie the transition CPT to the prior: slices are
                // interchangeable for static nets and evidence nodes.
                dbn.set_trans_cpt(id, prior)?;
            } else {
                let mut trans = dbn.trans_cpt(id).clone();
                trans.set_from_counts(&trans_counts[id], cfg.pseudocount);
                dbn.set_trans_cpt(id, trans)?;
            }
        }

        // Convergence check on the E-step log-likelihood.
        let k = logliks.len();
        if k >= 2 {
            let prev = logliks[k - 2];
            let cur = logliks[k - 1];
            if (cur - prev).abs() <= cfg.tol * (1.0 + prev.abs()) {
                converged = true;
                break;
            }
        }
    }

    Ok(EmReport {
        iterations: logliks.len(),
        logliks,
        converged,
    })
}

/// Like [`train`], but strict about convergence: failing to reach
/// `cfg.tol` within `cfg.max_iters` iterations is an
/// [`BayesError::EmNotConverged`] error instead of a report flag.
pub fn train_converged(
    dbn: &mut Dbn,
    sequences: &[EvidenceSeq],
    cfg: &EmConfig,
) -> Result<EmReport> {
    let report = train(dbn, sequences, cfg)?;
    if !report.converged {
        return Err(BayesError::EmNotConverged {
            iterations: report.iterations,
        });
    }
    Ok(report)
}

/// Accumulates one sequence's expected counts; returns its log-likelihood.
/// CPT rows come off the engine's compiled tables, under each slice's
/// hard values.
fn accumulate(
    dbn: &Dbn,
    engine: &Engine,
    seq: &EvidenceSeq,
    prior_counts: &mut [CptCounts],
    trans_counts: &mut [CptCounts],
) -> Result<f64> {
    let smo = engine.smooth(seq)?;
    let tlen = seq.len();
    let n = smo.n_states;
    let is_static = dbn.is_static();
    let hidden = engine.hidden();
    let mut slice = engine.slice();
    let mut q = Vec::new();

    for t in 0..tlen {
        engine.load(seq, t, &mut slice)?;
        let gamma = smo.gamma.belief(t);

        // Hidden-node prior counts: slice 0, or every slice when static.
        if t == 0 || is_static {
            for (h, &id) in hidden.iter().enumerate() {
                for (state, &w) in gamma.iter().enumerate() {
                    if w == 0.0 {
                        continue;
                    }
                    let cfg = engine.prior_row(h, state, &slice);
                    prior_counts[id].add(cfg, engine.value(h, state), w);
                }
            }
        }

        // Observed-node counts (prior CPT; evidence CPTs are tied).
        for (k, e) in engine.observed().enumerate() {
            let (cpt, obs) = (dbn.prior_cpt(e), seq.get(t, e));
            let (card, hard) = (cpt.card(), engine.hard_value(k, &slice));
            if obs.is_none() && hard.is_none() {
                continue; // missing leaf observation: no information
            }
            for (state, &w) in gamma.iter().enumerate() {
                if w == 0.0 {
                    continue;
                }
                let cfg = engine.evidence_row(k, state, &slice);
                if let Some(v) = hard {
                    prior_counts[e].add(cfg, v, w);
                } else if let Some(obs) = obs {
                    // Posterior over the evidence node's own state.
                    q.clear();
                    q.extend((0..card).map(|s| cpt.prob(cfg, s) * obs.likelihood(s, card)));
                    let qs: f64 = q.iter().sum();
                    if qs > 0.0 {
                        for x in &mut q {
                            *x /= qs;
                        }
                        for (s, &qv) in q.iter().enumerate() {
                            prior_counts[e].add(cfg, s, w * qv);
                        }
                    }
                }
            }
        }
    }

    // Hidden-node transition counts from pairwise posteriors.
    if !is_static {
        for t in 0..tlen.saturating_sub(1) {
            engine.load(seq, t + 1, &mut slice)?;
            let xi = &smo.xi[t];
            for (h, &id) in hidden.iter().enumerate() {
                for prev in 0..n {
                    for cur in 0..n {
                        let w = xi[prev * n + cur];
                        if w == 0.0 {
                            continue;
                        }
                        let cfg = engine.trans_row(h, prev, cur, &slice);
                        trans_counts[id].add(cfg, engine.value(h, cur), w);
                    }
                }
            }
        }
    }

    Ok(smo.gamma.loglik)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpt::Cpt;
    use crate::evidence::Obs;
    use crate::slice::SliceNet;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn hmm_dbn() -> (Dbn, usize, usize) {
        let mut s = SliceNet::new();
        let ea = s.hidden("EA", 2, &[]);
        let kw = s.observed("Kw", 2, &[ea]);
        let d = Dbn::new(s, vec![(ea, ea)]).unwrap();
        (d, ea, kw)
    }

    /// Samples sequences from a ground-truth model.
    fn sample(truth: &Dbn, ea: usize, kw: usize, rng: &mut StdRng, t_len: usize) -> EvidenceSeq {
        let mut seq = EvidenceSeq::new(t_len);
        let mut state = (rng.gen::<f64>() < truth.prior_cpt(ea).prob(0, 1)) as usize;
        for t in 0..t_len {
            if t > 0 {
                let p = truth.trans_cpt(ea).prob(state, 1);
                state = (rng.gen::<f64>() < p) as usize;
            }
            let pk = truth.prior_cpt(kw).prob(state, 1);
            let obs = (rng.gen::<f64>() < pk) as usize;
            seq.set(t, kw, Obs::Hard(obs));
        }
        seq
    }

    #[test]
    fn injected_iteration_fault_aborts_training() {
        let (mut model, ea, kw) = hmm_dbn();
        let mut rng = StdRng::seed_from_u64(3);
        let seqs = vec![sample(&model.clone(), ea, kw, &mut rng, 10)];
        let faults = FaultHandle::default();
        let (result, report) = faults.scope(
            cobra_faults::FaultPlan::new(1).fail(
                "em.iteration",
                cobra_faults::Trigger::Nth { skip: 2, times: 1 },
            ),
            || {
                train_with_faults(
                    &mut model,
                    &seqs,
                    &EmConfig {
                        max_iters: 8,
                        // Negative tolerance: the convergence check can
                        // never pass, so the loop provably reaches the
                        // scripted fault iteration.
                        tol: -1.0,
                        pseudocount: 0.1,
                    },
                    &faults,
                )
            },
        );
        assert_eq!(report.count("em.iteration"), 1);
        match result {
            Err(BayesError::EmDiverged { iteration: 2, .. }) => {}
            other => panic!("expected EmDiverged at iteration 2, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_evidence_is_a_typed_error_not_a_nan_model() {
        let (mut model, _ea, kw) = hmm_dbn();
        let mut seq = EvidenceSeq::new(4);
        // Soft evidence with NaN mass poisons the log-likelihood.
        for t in 0..4 {
            seq.set(t, kw, Obs::Soft(vec![f64::NAN, 1.0]));
        }
        let err = train(&mut model, &[seq], &EmConfig::default()).unwrap_err();
        assert!(
            matches!(
                err,
                BayesError::EmDiverged { .. } | BayesError::Numerical(_)
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn train_converged_is_strict_about_tolerance() {
        let (mut model, ea, kw) = hmm_dbn();
        let mut rng = StdRng::seed_from_u64(5);
        model.randomize(&mut rng, 0.6);
        let seqs = vec![sample(&model.clone(), ea, kw, &mut rng, 30)];
        // One iteration with zero tolerance cannot satisfy the check.
        let err = train_converged(
            &mut model,
            &seqs,
            &EmConfig {
                max_iters: 1,
                tol: 0.0,
                pseudocount: 0.1,
            },
        )
        .unwrap_err();
        assert_eq!(err, BayesError::EmNotConverged { iterations: 1 });
        // A loose tolerance converges and reports how.
        let report = train_converged(
            &mut model,
            &seqs,
            &EmConfig {
                max_iters: 20,
                tol: 1e3,
                pseudocount: 0.1,
            },
        )
        .unwrap();
        assert!(report.converged);
    }

    #[test]
    fn loglik_is_monotone_nondecreasing() {
        let (mut model, ea, kw) = hmm_dbn();
        let (mut truth, _, _) = hmm_dbn();
        truth
            .set_prior_cpt(ea, Cpt::binary(vec![], &[0.2]).unwrap())
            .unwrap();
        truth
            .set_trans_cpt(ea, Cpt::binary(vec![2], &[0.1, 0.9]).unwrap())
            .unwrap();
        truth
            .set_cpt(kw, Cpt::binary(vec![2], &[0.15, 0.8]).unwrap())
            .unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let seqs: Vec<EvidenceSeq> = (0..6)
            .map(|_| sample(&truth, ea, kw, &mut rng, 40))
            .collect();

        model.randomize(&mut rng, 0.6);
        let report = train(
            &mut model,
            &seqs,
            &EmConfig {
                max_iters: 15,
                tol: 0.0,
                pseudocount: 0.0,
            },
        )
        .unwrap();
        for w in report.logliks.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-8,
                "EM log-likelihood decreased: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn em_recovers_emission_asymmetry() {
        // Ground truth: keyword much likelier when EA=1. EM from an
        // informative start should keep/strengthen the asymmetry.
        let (mut truth, ea, kw) = hmm_dbn();
        truth
            .set_prior_cpt(ea, Cpt::binary(vec![], &[0.3]).unwrap())
            .unwrap();
        truth
            .set_trans_cpt(ea, Cpt::binary(vec![2], &[0.15, 0.85]).unwrap())
            .unwrap();
        truth
            .set_cpt(kw, Cpt::binary(vec![2], &[0.1, 0.9]).unwrap())
            .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let seqs: Vec<EvidenceSeq> = (0..10)
            .map(|_| sample(&truth, ea, kw, &mut rng, 60))
            .collect();

        let (mut model, _, _) = hmm_dbn();
        model
            .set_prior_cpt(ea, Cpt::binary(vec![], &[0.4]).unwrap())
            .unwrap();
        model
            .set_trans_cpt(ea, Cpt::binary(vec![2], &[0.3, 0.7]).unwrap())
            .unwrap();
        model
            .set_cpt(kw, Cpt::binary(vec![2], &[0.3, 0.7]).unwrap())
            .unwrap();
        train(&mut model, &seqs, &EmConfig::default()).unwrap();
        let p_low = model.prior_cpt(kw).prob(0, 1);
        let p_high = model.prior_cpt(kw).prob(1, 1);
        assert!(
            p_high - p_low > 0.4,
            "emission asymmetry not recovered: {p_low} vs {p_high}"
        );
    }

    #[test]
    fn supervised_clamping_pins_down_hidden_semantics() {
        // Clamp EA to ground truth during training: emission CPT converges
        // near the true conditional frequencies.
        let (mut truth, ea, kw) = hmm_dbn();
        truth
            .set_prior_cpt(ea, Cpt::binary(vec![], &[0.5]).unwrap())
            .unwrap();
        truth
            .set_trans_cpt(ea, Cpt::binary(vec![2], &[0.2, 0.8]).unwrap())
            .unwrap();
        truth
            .set_cpt(kw, Cpt::binary(vec![2], &[0.05, 0.75]).unwrap())
            .unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        // Sample with hidden-state bookkeeping so we can clamp.
        let mut seqs = Vec::new();
        for _ in 0..8 {
            let t_len = 80;
            let mut seq = EvidenceSeq::new(t_len);
            let mut state = (rng.gen::<f64>() < 0.5) as usize;
            for t in 0..t_len {
                if t > 0 {
                    let p = truth.trans_cpt(ea).prob(state, 1);
                    state = (rng.gen::<f64>() < p) as usize;
                }
                let pk = truth.prior_cpt(kw).prob(state, 1);
                seq.set(t, kw, Obs::Hard((rng.gen::<f64>() < pk) as usize));
                seq.set(t, ea, Obs::Hard(state));
            }
            seqs.push(seq);
        }
        let (mut model, _, _) = hmm_dbn();
        train(&mut model, &seqs, &EmConfig::default()).unwrap();
        assert!((model.prior_cpt(kw).prob(1, 1) - 0.75).abs() < 0.1);
        assert!((model.prior_cpt(kw).prob(0, 1) - 0.05).abs() < 0.1);
        assert!(model.trans_cpt(ea).prob(1, 1) > 0.7);
    }

    #[test]
    fn static_bn_pools_all_slices() {
        // Static net: P(E|H) learned from every slice. Clamp H so the
        // estimate is exact counting.
        let mut s = SliceNet::new();
        let h = s.hidden("H", 2, &[]);
        let e = s.observed("E", 2, &[h]);
        let mut model = Dbn::bn(s).unwrap();
        let mut seq = EvidenceSeq::new(8);
        // H=1 slices: E = 1,1,1,0 ; H=0 slices: E = 0,0,0,1
        let data = [
            (1usize, 1usize),
            (1, 1),
            (1, 1),
            (1, 0),
            (0, 0),
            (0, 0),
            (0, 0),
            (0, 1),
        ];
        for (t, (hv, ev)) in data.iter().enumerate() {
            seq.set(t, h, Obs::Hard(*hv));
            seq.set(t, e, Obs::Hard(*ev));
        }
        train(
            &mut model,
            &[seq],
            &EmConfig {
                max_iters: 3,
                tol: 0.0,
                pseudocount: 0.0,
            },
        )
        .unwrap();
        assert!((model.prior_cpt(e).prob(1, 1) - 0.75).abs() < 1e-9);
        assert!((model.prior_cpt(e).prob(0, 1) - 0.25).abs() < 1e-9);
        assert!((model.prior_cpt(h).prob(0, 1) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_training_set_is_rejected() {
        let (mut model, _, _) = hmm_dbn();
        assert!(matches!(
            train(&mut model, &[], &EmConfig::default()),
            Err(BayesError::EmptySequence)
        ));
        assert!(matches!(
            train(&mut model, &[EvidenceSeq::new(0)], &EmConfig::default()),
            Err(BayesError::EmptySequence)
        ));
    }
}
