//! Cross-layer integration: Moa expressions and MIL programs driving the
//! HMM and DBN extension modules on one shared kernel.

use std::sync::Arc;

use cobra_f1::bayes::paper::{audio_bn, BnStructure};
use cobra_f1::cobra::extensions::{DbnModule, NetStore, StoredNet};
use cobra_f1::hmm::mel::HmmModule;
use cobra_f1::hmm::{DiscreteHmm, HmmBank};
use cobra_f1::moa::{execute, Aggregate, MoaExpr, Predicate};
use cobra_f1::monet::prelude::*;
use cobra_f1::monet::MilValue;

fn kernel_with_everything() -> Kernel {
    let kernel = Kernel::new();
    // HMM module with two trivial models.
    let mut bank = HmmBank::new();
    bank.insert(
        "High",
        DiscreteHmm::new(1, 2, vec![1.0], vec![0.1, 0.9], vec![1.0]).unwrap(),
    );
    bank.insert(
        "Low",
        DiscreteHmm::new(1, 2, vec![1.0], vec![0.9, 0.1], vec![1.0]).unwrap(),
    );
    kernel
        .load_module(Arc::new(HmmModule::new(bank, 2)))
        .unwrap();
    // DBN module with the audio BN.
    let nets: NetStore = Default::default();
    let bn = audio_bn(BnStructure::FullyParameterized).unwrap();
    let query = bn.query;
    nets.write().insert(
        "audio".into(),
        StoredNet {
            net: bn,
            queries: vec![("EA".into(), query)],
            thresholds: Default::default(),
        },
    );
    kernel.load_module(Arc::new(DbnModule::new(nets))).unwrap();
    kernel
}

#[test]
fn moa_expression_drives_the_hmm_extension() {
    let kernel = kernel_with_everything();
    kernel.set_bat(
        "obs",
        Bat::from_tail(AtomType::Int, [1, 1, 1, 1].map(Atom::Int)).unwrap(),
    );
    // Moa extension call → MIL → MEL module, all through the layers.
    let expr = MoaExpr::call(
        "hmmClassify",
        vec![MoaExpr::collection("obs"), MoaExpr::Literal(Atom::Int(2))],
    );
    let out = execute(&kernel, expr).unwrap();
    assert_eq!(out, MilValue::Atom(Atom::str("High")));
}

#[test]
fn mil_program_runs_dbn_inference_over_catalog_features() {
    let kernel = kernel_with_everything();
    // Ten feature columns, three clips: quiet / excited / quiet.
    for k in 0..10 {
        let vals = if k == 1 {
            [0.9, 0.1, 0.9] // pause rate inverts
        } else {
            [0.1, 0.9, 0.1]
        };
        kernel.set_bat(
            &format!("race.f{}", k + 1),
            Bat::from_tail(AtomType::Dbl, vals.map(Atom::Dbl)).unwrap(),
        );
    }
    // A MIL program that runs inference and post-processes the trace with
    // plain BAT algebra — extension + relational ops in one plan.
    let out = kernel
        .eval_mil(
            r#"
            VAR trace := dbnInfer("race", "audio", "EA");
            VAR hot := trace.select(0.5, 1.0);
            RETURN hot.count;
            "#,
        )
        .unwrap();
    assert_eq!(out, MilValue::Atom(Atom::Int(1)));
    // The procedure binds nothing; a caller that wants the trace in the
    // catalog binds what it returns, and Moa can aggregate it.
    assert_eq!(kernel.bat_names().len(), 10);
    let trace = kernel
        .eval_mil(r#"RETURN dbnInfer("race", "audio", "EA");"#)
        .unwrap();
    kernel.set_bat("race.trace.EA", trace.as_bat().unwrap().read().clone());
    let expr = MoaExpr::collection("race.trace.EA")
        .select(Predicate::Range(Atom::Dbl(0.0), Atom::Dbl(1.0)))
        .aggregate(Aggregate::Count);
    assert_eq!(
        execute(&kernel, expr).unwrap(),
        MilValue::Atom(Atom::Int(3))
    );
}

#[test]
fn parallel_mil_block_coordinates_both_modules() {
    let kernel = kernel_with_everything();
    kernel.set_bat(
        "obs",
        Bat::from_tail(AtomType::Int, [0, 0, 0].map(Atom::Int)).unwrap(),
    );
    for k in 0..10 {
        kernel.set_bat(
            &format!("race.f{}", k + 1),
            Bat::from_tail(AtomType::Dbl, [0.5].map(Atom::Dbl)).unwrap(),
        );
    }
    let out = kernel
        .eval_mil(
            r#"
            threadcnt(2);
            PARALLEL {
                VAR who := hmmClassify(bat("obs"), 2);
                VAR trace := dbnInfer("race", "audio", "EA");
            }
            RETURN who + str(trace.count);
            "#,
        )
        .unwrap();
    assert_eq!(out, MilValue::Atom(Atom::str("Low1")));
}
