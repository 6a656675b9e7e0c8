//! Property tests for BN/DBN invariants.

#[path = "oracle/exact.rs"]
mod exact;

use f1_bayes::cpt::Cpt;
use f1_bayes::dbn::Dbn;
use f1_bayes::engine::Engine;
use f1_bayes::evidence::{EvidenceSeq, Obs};
use f1_bayes::paper::{audio_dbn, BnStructure, TemporalVariant};
use f1_bayes::slice::SliceNet;
use proptest::prelude::*;

fn prob() -> impl Strategy<Value = f64> {
    // Stay away from exact 0/1 so evidence is never impossible.
    0.02f64..0.98
}

/// Builds the EA -> Kw HMM-like DBN from sampled parameters.
fn hmm_dbn(p0: f64, stay0: f64, stay1: f64, e0: f64, e1: f64) -> Dbn {
    let mut s = SliceNet::new();
    let ea = s.hidden("EA", 2, &[]);
    let kw = s.observed("Kw", 2, &[ea]);
    let mut d = Dbn::new(s, vec![(ea, ea)]).unwrap();
    d.set_prior_cpt(ea, Cpt::binary(vec![], &[p0]).unwrap())
        .unwrap();
    d.set_trans_cpt(ea, Cpt::binary(vec![2], &[1.0 - stay0, stay1]).unwrap())
        .unwrap();
    d.set_cpt(kw, Cpt::binary(vec![2], &[e0, e1]).unwrap())
        .unwrap();
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engine_matches_brute_force_enumeration(
        p0 in prob(), stay0 in prob(), stay1 in prob(),
        e0 in prob(), e1 in prob(),
        obs in proptest::collection::vec(0usize..2, 1..5),
    ) {
        let d = hmm_dbn(p0, stay0, stay1, e0, e1);
        let mut ev = EvidenceSeq::new(obs.len());
        for (t, &o) in obs.iter().enumerate() {
            ev.set(t, 1, Obs::Hard(o));
        }
        let eng = Engine::new(&d).unwrap();
        let smo = eng.smooth(&ev).unwrap();
        for t in 0..obs.len() {
            let fast = smo.gamma.marginal(t, 0).unwrap();
            let slow = exact::posterior(&d, &ev, t, 0).unwrap();
            prop_assert!((fast[1] - slow[1]).abs() < 1e-9,
                "t={} fast={} slow={}", t, fast[1], slow[1]);
        }
        let ll = exact::loglik(&d, &ev).unwrap();
        prop_assert!((smo.gamma.loglik - ll).abs() < 1e-9);
    }

    #[test]
    fn posteriors_are_distributions(
        p0 in prob(), stay0 in prob(), stay1 in prob(),
        e0 in prob(), e1 in prob(),
        soft in proptest::collection::vec(prob(), 1..12),
    ) {
        let d = hmm_dbn(p0, stay0, stay1, e0, e1);
        let mut ev = EvidenceSeq::new(soft.len());
        for (t, &p) in soft.iter().enumerate() {
            ev.set_prob(t, 1, p);
        }
        let eng = Engine::new(&d).unwrap();
        let post = eng.filter(&ev, None).unwrap();
        for t in 0..soft.len() {
            let m = post.marginal(t, 0).unwrap();
            prop_assert!((m.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(m.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn bk_single_cluster_equals_exact_filtering(
        p0 in prob(), stay0 in prob(), stay1 in prob(),
        e0 in prob(), e1 in prob(),
        soft in proptest::collection::vec(prob(), 1..10),
    ) {
        let d = hmm_dbn(p0, stay0, stay1, e0, e1);
        let mut ev = EvidenceSeq::new(soft.len());
        for (t, &p) in soft.iter().enumerate() {
            ev.set_prob(t, 1, p);
        }
        let eng = Engine::new(&d).unwrap();
        let exact_f = eng.filter(&ev, None).unwrap();
        let bk = eng.filter(&ev, Some(&[vec![0]])).unwrap();
        for t in 0..soft.len() {
            let a = exact_f.marginal(t, 0).unwrap()[1];
            let b = bk.marginal(t, 0).unwrap()[1];
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn bk_step_api_matches_batch_filter(
        p0 in prob(), stay0 in prob(), stay1 in prob(),
        e0 in prob(), e1 in prob(),
        soft in proptest::collection::vec(prob(), 1..12),
        cues in proptest::collection::vec(proptest::collection::vec(prob(), 10), 1..12),
        clustered in 0u8..2,
    ) {
        // Differential: the resumable step API, fed evidence ONE SLICE
        // AT A TIME (each step sees only a 1-slice window, exactly like
        // a live ingest chunk), must produce beliefs identical to batch
        // filtering over the whole sequence. Two nets: the HMM, and the
        // Fig. 7b evidence-as-parent DBN, whose ten cues are hardened
        // from each window and select its transition matrix.
        let d = hmm_dbn(p0, stay0, stay1, e0, e1);
        let mut ev = EvidenceSeq::new(soft.len());
        for (t, &p) in soft.iter().enumerate() {
            ev.set_prob(t, 1, p);
        }
        let fig7b = audio_dbn(BnStructure::DirectEvidence, TemporalVariant::Full).unwrap();
        let fig7b_ev = EvidenceSeq::from_matrix(&fig7b.feature_nodes, &cues);
        for (d, ev, query) in [(&d, &ev, 0), (&fig7b.dbn, &fig7b_ev, fig7b.query)] {
            let eng = Engine::new(d).unwrap();
            let clusters: Option<Vec<Vec<usize>>> = (clustered == 1).then(|| vec![vec![query]]);
            let batch = eng.filter(ev, clusters.as_deref()).unwrap();
            // A stepper fed the whole sequence as one window, the
            // way a batch annotation pushes every committed row at once.
            let mut whole = Engine::new(d).unwrap().stepper(clusters.as_deref()).unwrap();
            let mut state = eng.stepper(clusters.as_deref()).unwrap();
            for t in 0..ev.len() {
                let slice = ev.window(t, t + 1);
                let belief = state.step(&slice, 0).unwrap();
                prop_assert_eq!(belief, batch.belief(t), "belief diverged at t={}", t);
                let m = state.marginal(query).unwrap();
                let bm = batch.marginal(t, query).unwrap();
                prop_assert_eq!(m, bm, "marginal diverged at t={}", t);
                let belief = whole.step(ev, t).unwrap();
                prop_assert_eq!(belief, batch.belief(t), "whole-window belief at t={}", t);
            }
            prop_assert_eq!(state.slices(), batch.len());
            prop_assert!((state.loglik() - batch.loglik).abs() < 1e-12,
                "loglik diverged: step={} batch={}", state.loglik(), batch.loglik);
        }
    }

    #[test]
    fn bk_step_projection_matches_batch_on_coupled_net(
        p0 in prob(), c0 in prob(), c1 in prob(),
        s0 in prob(), s1 in prob(),
        e0 in prob(), e1 in prob(),
        obs in proptest::collection::vec(0usize..2, 1..10),
    ) {
        // Two coupled hidden nodes with singleton BK clusters: the
        // projection is a genuine approximation here, so this checks the
        // step API reproduces the *projected* trajectory, not just the
        // exact one.
        let mut s = SliceNet::new();
        let a = s.hidden("A", 2, &[]);
        let b = s.hidden("B", 2, &[a]);
        let kw = s.observed("Kw", 2, &[b]);
        let mut d = Dbn::new(s, vec![(a, a), (b, b)]).unwrap();
        d.set_prior_cpt(a, Cpt::binary(vec![], &[p0]).unwrap()).unwrap();
        d.set_prior_cpt(b, Cpt::binary(vec![2], &[c0, c1]).unwrap()).unwrap();
        d.set_trans_cpt(a, Cpt::binary(vec![2], &[1.0 - s0, s0]).unwrap()).unwrap();
        d.set_trans_cpt(b, Cpt::binary(vec![2, 2], &[c0, s1, c1, s1]).unwrap()).unwrap();
        d.set_cpt(kw, Cpt::binary(vec![2], &[e0, e1]).unwrap()).unwrap();
        let mut ev = EvidenceSeq::new(obs.len());
        for (t, &o) in obs.iter().enumerate() {
            ev.set(t, kw, Obs::Hard(o));
        }
        let eng = Engine::new(&d).unwrap();
        let clusters = vec![vec![a], vec![b]];
        let batch = eng.filter(&ev, Some(&clusters)).unwrap();
        let mut state = eng.stepper(Some(&clusters)).unwrap();
        for t in 0..obs.len() {
            let belief = state.step(&ev.window(t, t + 1), 0).unwrap();
            prop_assert_eq!(belief, batch.belief(t),
                "projected belief diverged at t={}", t);
        }
        prop_assert!((state.loglik() - batch.loglik).abs() < 1e-12);
    }

    #[test]
    fn em_never_decreases_loglik(
        seed in 0u64..1000,
        t_len in 4usize..16,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = hmm_dbn(0.5, 0.5, 0.5, 0.5, 0.5);
        model.randomize(&mut rng, 0.7);
        let mut seqs = Vec::new();
        for _ in 0..3 {
            let mut ev = EvidenceSeq::new(t_len);
            for t in 0..t_len {
                ev.set(t, 1, Obs::Hard(rng.gen_range(0..2)));
            }
            seqs.push(ev);
        }
        let report = f1_bayes::em::train(
            &mut model,
            &seqs,
            &f1_bayes::em::EmConfig { max_iters: 8, tol: 0.0, pseudocount: 0.0 },
        ).unwrap();
        for w in report.logliks.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-7, "loglik dropped {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn cluster_projection_preserves_single_node_marginals(
        p0 in prob(), c0 in prob(), c1 in prob(),
    ) {
        // Two-node net; project onto singletons; node marginals unchanged.
        let mut s = SliceNet::new();
        let a = s.hidden("A", 2, &[]);
        let b = s.hidden("B", 2, &[a]);
        let mut d = Dbn::bn(s).unwrap();
        d.set_prior_cpt(a, Cpt::binary(vec![], &[p0]).unwrap()).unwrap();
        d.set_prior_cpt(b, Cpt::binary(vec![2], &[c0, c1]).unwrap()).unwrap();
        let eng = Engine::new(&d).unwrap();
        let ev = EvidenceSeq::new(1);
        let post = eng.filter(&ev, None).unwrap();
        let ma = post.marginal(0, a).unwrap();
        let mb = post.marginal(0, b).unwrap();
        let projected = eng.filter(&ev, Some(&[vec![a], vec![b]])).unwrap();
        let belief = projected.belief(0);
        // Recompute marginals from the projected belief.
        let pa1 = belief[1] + belief[3];
        let pb1 = belief[2] + belief[3];
        prop_assert!((pa1 - ma[1]).abs() < 1e-9);
        prop_assert!((pb1 - mb[1]).abs() < 1e-9);
    }

    #[test]
    fn metrics_precision_recall_bounded(
        dets in proptest::collection::vec((0usize..100, 1usize..20), 0..8),
        trs in proptest::collection::vec((0usize..100, 1usize..20), 0..8),
    ) {
        use f1_bayes::metrics::{precision_recall, Segment};
        let d: Vec<Segment> = dets.iter().map(|&(s, l)| Segment::new(s, s + l)).collect();
        let t: Vec<Segment> = trs.iter().map(|&(s, l)| Segment::new(s, s + l)).collect();
        let pr = precision_recall(&d, &t);
        prop_assert!((0.0..=1.0).contains(&pr.precision));
        prop_assert!((0.0..=1.0).contains(&pr.recall));
        prop_assert!((0.0..=1.0).contains(&pr.f1()));
        prop_assert_eq!(pr.true_positives + pr.false_positives, d.len());
    }

    #[test]
    fn threshold_segments_respect_min_len(
        trace in proptest::collection::vec(0.0f64..1.0, 0..80),
        theta in 0.1f64..0.9,
        min_len in 1usize..6,
    ) {
        let segs = f1_bayes::metrics::threshold_segments(&trace, theta, min_len, 0);
        for s in &segs {
            prop_assert!(s.len() >= min_len);
            for &v in &trace[s.start..s.end] {
                prop_assert!(v >= theta);
            }
        }
        // Segments are disjoint and ordered.
        for w in segs.windows(2) {
            prop_assert!(w[0].end <= w[1].start);
        }
    }
}
