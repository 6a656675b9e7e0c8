//! Differential tests: the compiled engine must be *bit-identical* to the
//! reference engine in `reference/mod.rs` (the engine before it was
//! compiled into dense tables) on random networks — filtering under every
//! clustering, the stepper fed one-slice windows, smoothing's γ, ξ and
//! log-likelihood, and the error a bad or impossible slice raises. Every
//! `f64` is compared with `==`: no tolerance.
//!
//! The nets have 1–4 hidden nodes of cardinality 2–3 with intra-slice
//! edges, evidence leaves with 0–2 parents, sometimes an observed node
//! conditioning hidden nodes (the paper's Fig. 7b), temporal edges, and
//! CPTs from [`Dbn::randomize`]. Evidence is hard, soft or missing, with
//! clamps on hidden nodes and occasional malformed or impossible slices.

mod reference;

use f1_bayes::bk::Clusters;
use f1_bayes::cpt::Cpt;
use f1_bayes::dbn::Dbn;
use f1_bayes::engine::Engine;
use f1_bayes::evidence::{EvidenceSeq, Obs};
use f1_bayes::slice::{NodeId, SliceNet};
use f1_bayes::{BayesError, Result};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-slice beliefs and the log-likelihood of a filter or smoothing run.
type Run = (Vec<Vec<f64>>, f64);

/// A random network and an evidence sequence for it.
fn random_case(seed: u64) -> (Dbn, EvidenceSeq) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = SliceNet::new();
    let cond = rng
        .gen_bool(0.4)
        .then(|| s.observed("C", rng.gen_range(2..=3), &[]));
    let mut hidden: Vec<NodeId> = Vec::new();
    for i in 0..rng.gen_range(1..=4) {
        let mut parents: Vec<NodeId> = (hidden.iter().copied())
            .filter(|_| rng.gen_bool(0.4))
            .take(2)
            .collect();
        if let Some(c) = cond.filter(|_| rng.gen_bool(0.6)) {
            parents.push(c);
        }
        hidden.push(s.hidden(&format!("H{i}"), rng.gen_range(2..=3), &parents));
    }
    let pool: Vec<NodeId> = hidden.iter().copied().chain(cond).collect();
    for i in 0..rng.gen_range(1..=4) {
        let mut parents = Vec::new();
        for _ in 0..rng.gen_range(0..=2) {
            let p = pool[rng.gen_range(0..pool.len())];
            if !parents.contains(&p) {
                parents.push(p);
            }
        }
        s.observed(&format!("E{i}"), rng.gen_range(2..=3), &parents);
    }
    let temporal: Vec<(NodeId, NodeId)> = (hidden.iter())
        .flat_map(|&from| hidden.iter().map(move |&to| (from, to)))
        .filter(|_| rng.gen_bool(0.35))
        .collect();
    let mut dbn = Dbn::new(s, temporal).unwrap();
    dbn.randomize(&mut rng, 0.9);

    // Sometimes H0's last value becomes impossible, and a clamp asks for it.
    let h0 = hidden[0];
    let h0_card = dbn.slice().nodes()[h0].card;
    let impossible_at = rng.gen_bool(0.15).then(|| {
        for trans in [false, true] {
            let cpt = if trans {
                dbn.trans_cpt(h0)
            } else {
                dbn.prior_cpt(h0)
            };
            let rows: Vec<Vec<f64>> = (0..cpt.n_configs())
                .map(|cfg| {
                    let mut row = cpt.row(cfg).to_vec();
                    row[h0_card - 1] = 0.0;
                    row
                })
                .collect();
            let cpt = Cpt::from_rows(h0_card, cpt.parent_cards().to_vec(), &rows).unwrap();
            if trans {
                dbn.set_trans_cpt(h0, cpt).unwrap();
            } else {
                dbn.set_prior_cpt(h0, cpt).unwrap();
            }
        }
        rng.gen_range(0..6)
    });

    let t_len = rng.gen_range(1..=6);
    let drop_core_at = rng.gen_bool(0.1).then(|| rng.gen_range(0..t_len));
    let core = dbn.slice().core_observed();
    let mut ev = EvidenceSeq::new(t_len);
    for t in 0..t_len {
        for (id, node) in dbn.slice().nodes().iter().enumerate() {
            let present = match (node.observed, core.contains(&id)) {
                (true, true) => drop_core_at != Some(t),
                (true, false) => rng.gen_bool(0.8),
                (false, _) => rng.gen_bool(0.15),
            };
            if !present {
                continue;
            }
            let obs = if rng.gen_bool(0.02) {
                Obs::Hard(node.card) // out of range
            } else if rng.gen_bool(0.3) {
                Obs::Hard(rng.gen_range(0..node.card))
            } else {
                let len = node.card + rng.gen_bool(0.02) as usize;
                let lik = (0..len).map(|_| {
                    if rng.gen_bool(0.1) {
                        0.0
                    } else {
                        rng.gen_range(0.01..1.0)
                    }
                });
                Obs::Soft(lik.collect())
            };
            ev.set(t, id, obs);
        }
    }
    if let Some(t) = impossible_at.filter(|&t| t < t_len) {
        ev.set(t, h0, Obs::Hard(h0_card - 1));
    }
    (dbn, ev)
}

/// The clusterings the paper compares, plus plain exact filtering.
fn clusterings(dbn: &Dbn) -> Vec<Option<Vec<Vec<NodeId>>>> {
    vec![
        None,
        Some(Clusters::single(dbn).0),
        Some(Clusters::separate(dbn, &["H0"]).unwrap().0),
        Some(Clusters::singletons(dbn).0),
    ]
}

fn filter_new(dbn: &Dbn, ev: &EvidenceSeq, c: Option<&[Vec<NodeId>]>) -> Result<Run> {
    let post = Engine::new(dbn)?.filter(ev, c)?;
    Ok((
        (0..post.len()).map(|t| post.belief(t).to_vec()).collect(),
        post.loglik,
    ))
}

fn filter_ref(dbn: &Dbn, ev: &EvidenceSeq, c: Option<&[Vec<NodeId>]>) -> Result<Run> {
    let post = reference::Engine::new(dbn)?.filter(ev, c)?;
    Ok((
        (0..post.len()).map(|t| post.belief(t).to_vec()).collect(),
        post.loglik,
    ))
}

/// Each one-slice window's step outcome, up to the first error, then the
/// filter's clock and log-likelihood.
type Stepped = (Vec<Result<Vec<f64>>>, usize, f64);

fn stepper_new(dbn: &Dbn, ev: &EvidenceSeq, c: Option<&[Vec<NodeId>]>) -> Result<Stepped> {
    let mut state = Engine::new(dbn)?.stepper(c)?;
    let mut steps = Vec::new();
    for t in 0..ev.len() {
        let step = state.step(&ev.window(t, t + 1), 0).map(<[f64]>::to_vec);
        let failed = step.is_err();
        steps.push(step);
        if failed {
            break;
        }
    }
    Ok((steps, state.slices(), state.loglik()))
}

fn stepper_ref(dbn: &Dbn, ev: &EvidenceSeq, c: Option<&[Vec<NodeId>]>) -> Result<Stepped> {
    let engine = reference::Engine::new(dbn)?;
    let mut state = engine.stepper(c)?;
    let mut steps = Vec::new();
    for t in 0..ev.len() {
        let step = state.step(&ev.window(t, t + 1), 0);
        let failed = step.is_err();
        steps.push(step);
        if failed {
            break;
        }
    }
    Ok((steps, state.slices(), state.loglik()))
}

fn smooth_new(dbn: &Dbn, ev: &EvidenceSeq) -> Result<(Run, Vec<Vec<f64>>)> {
    let smo = Engine::new(dbn)?.smooth(ev)?;
    let gamma = (0..smo.gamma.len()).map(|t| smo.gamma.belief(t).to_vec());
    Ok(((gamma.collect(), smo.gamma.loglik), smo.xi))
}

fn smooth_ref(dbn: &Dbn, ev: &EvidenceSeq) -> Result<(Run, Vec<Vec<f64>>)> {
    let smo = reference::Engine::new(dbn)?.smooth(ev)?;
    let gamma = (0..smo.gamma.len()).map(|t| smo.gamma.belief(t).to_vec());
    Ok(((gamma.collect(), smo.gamma.loglik), smo.xi))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compiled_engine_is_bit_identical_to_the_reference(seed in 0u64..u64::MAX) {
        let (dbn, ev) = random_case(seed);
        for c in clusterings(&dbn) {
            let c = c.as_deref();
            prop_assert_eq!(filter_new(&dbn, &ev, c), filter_ref(&dbn, &ev, c), "filter {:?}", c);
            prop_assert_eq!(stepper_new(&dbn, &ev, c), stepper_ref(&dbn, &ev, c), "stepper {:?}", c);
        }
        prop_assert_eq!(smooth_new(&dbn, &ev), smooth_ref(&dbn, &ev));
    }
}

/// The random cases are not vacuous: most filter, and every error kind a
/// slice can raise turns up.
#[test]
fn random_cases_cover_success_and_every_slice_error() {
    let (mut ok, mut missing, mut shape, mut numerical) = (0, 0, 0, 0);
    for seed in 0..400 {
        let (dbn, ev) = random_case(seed);
        match filter_new(&dbn, &ev, None) {
            Ok(_) => ok += 1,
            Err(BayesError::MissingHardEvidence { .. }) => missing += 1,
            Err(BayesError::EvidenceShape { .. }) => shape += 1,
            Err(BayesError::Numerical(_)) => numerical += 1,
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }
    assert!(ok > 200, "only {ok} of 400 cases filter");
    assert!(missing > 0 && shape > 0 && numerical > 0);
}
