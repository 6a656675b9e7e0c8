//! The HMM extension module for the Monet kernel.
//!
//! The paper implements the HMM extension "at the physical level […] as a
//! MIL function, exploiting the parallel execution operator of Monet"
//! (Fig. 4). [`HmmModule`] is the MEL side of that picture: it registers
//! the procedures that Fig. 4's `hmmP` PROC calls —
//!
//! * `quant1(f1, f2, …)` — quantize feature BATs into an observation BAT,
//! * `hmmOneCall(model, obs)` — log-likelihood of one model,
//! * `hmmEval(obs, threads)` — all models in parallel, as a `[str,dbl]` BAT,
//! * `hmmClassify(obs, threads)` — the best model's name,
//! * `hmmTrain(model, obs, iters)` — Baum–Welch on a catalog sequence.

use std::sync::{Arc, RwLock};

use cobra_faults::Recover;
use f1_monet::prelude::*;
use f1_monet::MilValue;

use crate::bank::HmmBank;
use crate::baum_welch::{train, TrainConfig};
use crate::quantize::Quantizer;

/// MEL module exposing an [`HmmBank`] to MIL programs.
pub struct HmmModule {
    bank: Arc<RwLock<HmmBank>>,
    quantizer_bins: usize,
}

impl HmmModule {
    /// Wraps a bank; `quantizer_bins` is the per-feature level count used
    /// by `quant1`.
    pub fn new(bank: HmmBank, quantizer_bins: usize) -> Self {
        HmmModule {
            bank: Arc::new(RwLock::new(bank)),
            quantizer_bins,
        }
    }

    /// Shared handle to the underlying bank (e.g. for training outside
    /// MIL).
    pub fn bank(&self) -> Arc<RwLock<HmmBank>> {
        Arc::clone(&self.bank)
    }

    fn obs_from_bat(value: &MilValue) -> std::result::Result<Vec<usize>, MonetError> {
        let bat = value.as_bat().map_err(module_err)?;
        let bat = bat.read().recover();
        bat.tail()
            .iter()
            .map(|a| {
                let v = a.as_int().map_err(module_err)?;
                if v < 0 {
                    return Err(module_err(format!("negative symbol {v}")));
                }
                Ok(v as usize)
            })
            .collect()
    }
}

fn module_err(e: impl ToString) -> MonetError {
    MonetError::Module {
        module: "hmm".into(),
        message: e.to_string(),
    }
}

impl MelModule for HmmModule {
    fn name(&self) -> &str {
        "hmm"
    }

    fn procedures(&self) -> Vec<String> {
        ["quant1", "hmmOneCall", "hmmEval", "hmmClassify", "hmmTrain"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    fn call(
        &self,
        _kernel: &Kernel,
        proc: &str,
        args: &[MilValue],
    ) -> std::result::Result<MilValue, MonetError> {
        match proc {
            "quant1" => {
                if args.is_empty() {
                    return Err(module_err("quant1 needs at least one feature BAT"));
                }
                let mut columns: Vec<Vec<f64>> = Vec::with_capacity(args.len());
                for arg in args {
                    let bat = arg.as_bat().map_err(module_err)?;
                    let bat = bat.read().recover();
                    let col: std::result::Result<Vec<f64>, MonetError> = bat
                        .tail()
                        .iter()
                        .map(|a| a.as_dbl().map_err(module_err))
                        .collect();
                    columns.push(col?);
                }
                let len = columns[0].len();
                if columns.iter().any(|c| c.len() != len) {
                    return Err(module_err("feature BATs have different lengths"));
                }
                let q = Quantizer::new(columns.len(), self.quantizer_bins).map_err(module_err)?;
                let mut out = Bat::new(AtomType::Void, AtomType::Int);
                for t in 0..len {
                    let frame: Vec<f64> = columns.iter().map(|c| c[t]).collect();
                    let sym = q.symbol(&frame).map_err(module_err)?;
                    out.append_void(Atom::Int(sym as i64))?;
                }
                Ok(MilValue::new_bat(out))
            }
            "hmmOneCall" => {
                let name = args
                    .first()
                    .ok_or_else(|| module_err("hmmOneCall(model, obs)"))?
                    .as_atom()
                    .map_err(module_err)?;
                let obs = Self::obs_from_bat(
                    args.get(1)
                        .ok_or_else(|| module_err("hmmOneCall(model, obs)"))?,
                )?;
                let bank = self.bank.read().recover();
                let model = bank.get(name.as_str()?).map_err(module_err)?;
                let ll = model.log_likelihood(&obs).map_err(module_err)?;
                Ok(MilValue::Atom(Atom::Dbl(ll)))
            }
            "hmmEval" | "hmmClassify" => {
                let obs = Self::obs_from_bat(
                    args.first()
                        .ok_or_else(|| module_err(format!("{proc}(obs[, threads])")))?,
                )?;
                let threads = match args.get(1) {
                    Some(v) => v
                        .as_atom()
                        .map_err(module_err)?
                        .as_int()
                        .map_err(module_err)? as usize,
                    None => 1,
                };
                let bank = self.bank.read().recover();
                if proc == "hmmClassify" {
                    let (name, _) = bank.classify(&obs, threads).map_err(module_err)?;
                    return Ok(MilValue::Atom(Atom::str(name)));
                }
                let scores = bank
                    .evaluate_parallel(&obs, threads.max(1))
                    .map_err(module_err)?;
                let mut out = Bat::new(AtomType::Str, AtomType::Dbl);
                for (name, ll) in scores {
                    out.append(Atom::str(name), Atom::Dbl(ll))?;
                }
                Ok(MilValue::new_bat(out))
            }
            "hmmTrain" => {
                let name = args
                    .first()
                    .ok_or_else(|| module_err("hmmTrain(model, obs[, iters])"))?
                    .as_atom()
                    .map_err(module_err)?;
                let obs = Self::obs_from_bat(
                    args.get(1)
                        .ok_or_else(|| module_err("hmmTrain(model, obs[, iters])"))?,
                )?;
                let iters = match args.get(2) {
                    Some(v) => v
                        .as_atom()
                        .map_err(module_err)?
                        .as_int()
                        .map_err(module_err)? as usize,
                    None => TrainConfig::default().max_iters,
                };
                let mut bank = self.bank.write().recover();
                let model = bank.get_mut(name.as_str()?).map_err(module_err)?;
                let report = train(
                    model,
                    &[obs],
                    &TrainConfig {
                        max_iters: iters,
                        ..TrainConfig::default()
                    },
                )
                .map_err(module_err)?;
                Ok(MilValue::Atom(Atom::Dbl(
                    *report.logliks.last().unwrap_or(&f64::NEG_INFINITY),
                )))
            }
            other => Err(MonetError::NotFound(format!("hmm.{other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DiscreteHmm;

    fn kernel_with_bank() -> Kernel {
        let mut bank = HmmBank::new();
        bank.insert(
            "Service",
            DiscreteHmm::new(1, 3, vec![1.0], vec![0.1, 0.1, 0.8], vec![1.0]).unwrap(),
        );
        bank.insert(
            "Smash",
            DiscreteHmm::new(1, 3, vec![1.0], vec![0.8, 0.1, 0.1], vec![1.0]).unwrap(),
        );
        let k = Kernel::new();
        k.load_module(Arc::new(HmmModule::new(bank, 3))).unwrap();
        k
    }

    #[test]
    fn quant1_bins_features_into_symbols() {
        let k = kernel_with_bank();
        let v = k
            .eval_mil(
                r#"
                VAR f := new(void, dbl);
                f.insert(0.1); f.insert(0.5); f.insert(0.95);
                VAR obs := quant1(f);
                RETURN obs.max;
                "#,
            )
            .unwrap();
        assert_eq!(v, MilValue::Atom(Atom::Int(2)));
    }

    #[test]
    fn fig4_pattern_through_mil() {
        // The complete Fig. 4 flow: quantize, evaluate all models in
        // parallel, pick the winner by reverse-find.
        let k = kernel_with_bank();
        let v = k
            .eval_mil(
                r#"
                PROC hmmP(BAT[oid,dbl] f1) : str := {
                    VAR Obs := quant1(f1);
                    VAR parEval := hmmEval(Obs, 2);
                    VAR najmanji := parEval.max;
                    VAR ret := (parEval.reverse).find(najmanji);
                    RETURN ret;
                };
                VAR f := new(void, dbl);
                f.insert(0.9); f.insert(0.95); f.insert(0.85);
                RETURN hmmP(f);
                "#,
            )
            .unwrap();
        assert_eq!(v, MilValue::Atom(Atom::str("Service")));
    }

    #[test]
    fn hmm_one_call_returns_loglik() {
        let k = kernel_with_bank();
        let v = k
            .eval_mil(
                r#"
                VAR obs := new(void, int);
                obs.insert(2); obs.insert(2);
                RETURN hmmOneCall("Service", obs);
                "#,
            )
            .unwrap();
        match v {
            MilValue::Atom(Atom::Dbl(ll)) => assert!((ll - 2.0 * 0.8f64.ln()).abs() < 1e-12),
            other => panic!("expected dbl, got {other:?}"),
        }
    }

    #[test]
    fn hmm_classify_picks_low_symbol_model() {
        let k = kernel_with_bank();
        let v = k
            .eval_mil(
                r#"
                VAR obs := new(void, int);
                obs.insert(0); obs.insert(0); obs.insert(0);
                RETURN hmmClassify(obs, 2);
                "#,
            )
            .unwrap();
        assert_eq!(v, MilValue::Atom(Atom::str("Smash")));
    }

    #[test]
    fn unknown_model_and_bad_args_error() {
        let k = kernel_with_bank();
        assert!(k
            .eval_mil("VAR o := new(void, int); o.insert(0); RETURN hmmOneCall(\"Volley\", o);")
            .is_err());
        assert!(k.eval_mil("RETURN quant1();").is_err());
        assert!(k
            .eval_mil("VAR o := new(void, int); o.insert(-3); RETURN hmmClassify(o);")
            .is_err());
    }

    #[test]
    fn hmm_train_improves_model_in_place() {
        let k = kernel_with_bank();
        let before = k
            .eval_mil(
                r#"
                VAR obs := new(void, int);
                obs.insert(1); obs.insert(1); obs.insert(1); obs.insert(1);
                RETURN hmmOneCall("Service", obs);
                "#,
            )
            .unwrap();
        k.eval_mil(
            r#"
            VAR obs := new(void, int);
            obs.insert(1); obs.insert(1); obs.insert(1); obs.insert(1);
            hmmTrain("Service", obs, 10);
            "#,
        )
        .unwrap();
        let after = k
            .eval_mil(
                r#"
                VAR obs := new(void, int);
                obs.insert(1); obs.insert(1); obs.insert(1); obs.insert(1);
                RETURN hmmOneCall("Service", obs);
                "#,
            )
            .unwrap();
        let (MilValue::Atom(Atom::Dbl(b)), MilValue::Atom(Atom::Dbl(a))) = (before, after) else {
            panic!("expected dbl scores");
        };
        assert!(a > b, "training should raise loglik ({b} -> {a})");
    }
}
