//! The VDBMS extensions.
//!
//! The paper integrates its knowledge-based techniques "in all three
//! layers of the DBMS architecture (not only in one place)". At the
//! physical level that means MEL modules: [`DbnModule`] exposes DBN
//! inference as kernel procedures operating directly on catalog feature
//! BATs (the role the paper's Matlab server played, Fig. 5), alongside
//! `f1_hmm::mel::HmmModule`.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use cobra_faults::Recover;
use f1_bayes::engine::{BkState, Engine};
use f1_bayes::evidence::EvidenceSeq;
use f1_bayes::paper::PaperNet;
use f1_bayes::slice::NodeId;
use f1_bayes::BayesError;
use f1_monet::prelude::*;
use f1_monet::MilValue;

use crate::catalog::load_feature_rows;

/// A stored, trained network with its query nodes.
#[derive(Clone)]
pub struct StoredNet {
    /// The network and its evidence wiring.
    pub net: PaperNet,
    /// Named query nodes (e.g. "HL", "ST", "FO", "PS", "EA").
    pub queries: Vec<(String, NodeId)>,
    /// Decision thresholds calibrated on the training windows, per query
    /// node name (annotation falls back to 0.5 when absent).
    pub thresholds: HashMap<String, f64>,
}

/// The one loop from feature rows to query marginals: steps `state`, a
/// Boyen–Koller filter ([`Engine::stepper`]) over a net whose evidence
/// nodes are `features`, through `rows` (the next clips' feature rows, in
/// order) and hands `each` every clip's `P(node = 1)` of each of `nodes`,
/// NaN for `None`. Whole-video inference ([`query_traces`]) and the
/// [`Annotator`](crate::Annotator) step through it.
pub(crate) fn step_rows(
    state: &mut BkState,
    features: &[NodeId],
    nodes: &[Option<NodeId>],
    rows: &[Vec<f64>],
    mut each: impl FnMut(&[f64]),
) -> crate::Result<()> {
    let evidence = EvidenceSeq::from_matrix(features, rows);
    let mut marginals = vec![f64::NAN; nodes.len()];
    for t in 0..rows.len() {
        state.step(&evidence, t)?;
        for (p, node) in marginals.iter_mut().zip(nodes) {
            if let Some(node) = *node {
                *p = state.marginal(node)?[1];
            }
        }
        each(&marginals);
    }
    Ok(())
}

/// The trace (`P(node = 1)` per clip) of each of `nodes` under `net` over
/// the committed feature rows of `video`: one read through the one
/// loader, one [`step_rows`] pass. Training's calibration,
/// `Vdbms::infer` and `dbnInfer` read their traces off it.
pub(crate) fn query_traces(
    kernel: &Kernel,
    video: &str,
    net: &PaperNet,
    nodes: &[NodeId],
) -> crate::Result<Vec<Vec<f64>>> {
    let rows = load_feature_rows(kernel, video, net.feature_nodes.len())?;
    if rows.is_empty() {
        return Err(BayesError::EmptySequence.into());
    }
    let mut state = Engine::new(&net.dbn)?.stepper(None)?;
    let nodes: Vec<_> = nodes.iter().copied().map(Some).collect();
    let mut traces = vec![Vec::with_capacity(rows.len()); nodes.len()];
    step_rows(&mut state, &net.feature_nodes, &nodes, &rows, |p| {
        (traces.iter_mut().zip(p)).for_each(|(t, &p)| t.push(p))
    })?;
    Ok(traces)
}

/// Shared store of trained networks.
pub type NetStore = Arc<RwLock<HashMap<String, StoredNet>>>;

/// The DBN extension module: MEL procedures over catalog feature BATs.
pub struct DbnModule {
    nets: NetStore,
}

impl DbnModule {
    /// Creates the module over a shared network store.
    pub fn new(nets: NetStore) -> Self {
        DbnModule { nets }
    }
}

fn module_err(e: impl ToString) -> MonetError {
    MonetError::Module {
        module: "dbn".into(),
        message: e.to_string(),
    }
}

impl MelModule for DbnModule {
    fn name(&self) -> &str {
        "dbn"
    }

    fn procedures(&self) -> Vec<String> {
        vec!["dbnInfer".into(), "dbnList".into()]
    }

    fn call(
        &self,
        kernel: &Kernel,
        proc: &str,
        args: &[MilValue],
    ) -> std::result::Result<MilValue, MonetError> {
        match proc {
            "dbnList" => {
                let mut out = Bat::new(AtomType::Void, AtomType::Str);
                let nets = self.nets.read().recover();
                let mut names: Vec<&String> = nets.keys().collect();
                names.sort();
                for n in names {
                    out.append_void(Atom::str(n))?;
                }
                Ok(MilValue::new_bat(out))
            }
            "dbnInfer" => {
                // dbnInfer(video, netName, queryNode) -> [void,dbl] trace:
                // one query's `query_traces`.
                let arg = |i: usize| {
                    let value = args.get(i);
                    let value = value.ok_or_else(|| module_err("dbnInfer(video, net, query)"))?;
                    value.as_atom().map_err(module_err)
                };
                let (video, net_name, query) = (arg(0)?, arg(1)?, arg(2)?);
                let nets = self.nets.read().recover();
                let stored = nets
                    .get(net_name.as_str()?)
                    .ok_or_else(|| module_err(format!("no network '{}'", net_name)))?;
                let query_id = stored
                    .queries
                    .iter()
                    .find(|(n, _)| n == query.as_str().unwrap_or(""))
                    .map(|(_, id)| *id)
                    .ok_or_else(|| module_err(format!("no query node '{query}'")))?;
                let traces = query_traces(kernel, video.as_str()?, &stored.net, &[query_id]);
                let trace = traces.map_err(module_err)?.into_iter().flatten();
                let out = Bat::from_tail(AtomType::Dbl, trace.map(Atom::Dbl))?;
                Ok(MilValue::new_bat(out))
            }
            other => Err(MonetError::NotFound(format!("dbn.{other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f1_bayes::paper::{audio_bn, BnStructure};

    #[test]
    fn dbn_module_infers_over_catalog_bats() {
        use std::sync::Arc;
        let kernel = Kernel::new();
        let nets: NetStore = Arc::new(RwLock::new(HashMap::new()));
        let bn = audio_bn(BnStructure::FullyParameterized).unwrap();
        let query = bn.query;
        nets.write().recover().insert(
            "audio".into(),
            StoredNet {
                net: bn,
                queries: vec![("EA".into(), query)],
                thresholds: HashMap::new(),
            },
        );
        kernel
            .load_module(Arc::new(DbnModule::new(Arc::clone(&nets))))
            .unwrap();

        // Store a 3-clip feature layer: quiet, excited, quiet.
        for k in 0..10 {
            let vals = if (2..10).contains(&k) {
                [0.1, 0.9, 0.1]
            } else if k == 1 {
                [0.9, 0.1, 0.9] // pause rate inverts
            } else {
                [0.05, 0.9, 0.05] // keywords
            };
            let bat = Bat::from_tail(AtomType::Dbl, vals.map(Atom::Dbl)).unwrap();
            kernel.set_bat(&format!("german.f{}", k + 1), bat);
        }
        let out = kernel
            .eval_mil(r#"RETURN dbnInfer("german", "audio", "EA");"#)
            .unwrap();
        let bat = out.as_bat().unwrap();
        let bat = bat.read().recover();
        assert_eq!(bat.len(), 3);
        let p0 = bat.tail_at(0).unwrap().as_dbl().unwrap();
        let p1 = bat.tail_at(1).unwrap().as_dbl().unwrap();
        assert!(p1 > p0 + 0.2, "excited clip {p1} vs quiet {p0}");
        // The procedure returns its trace and binds nothing.
        assert!(!kernel.bat_names().iter().any(|name| name.contains("trace")));
        // dbnList exposes the store.
        let names = kernel.eval_mil("RETURN dbnList();").unwrap();
        assert_eq!(names.as_bat().unwrap().read().recover().len(), 1);
    }

    #[test]
    fn dbn_module_rejects_unknown_nets_and_nodes() {
        use std::sync::Arc;
        let kernel = Kernel::new();
        let nets: NetStore = Arc::new(RwLock::new(HashMap::new()));
        kernel.load_module(Arc::new(DbnModule::new(nets))).unwrap();
        assert!(kernel
            .eval_mil(r#"RETURN dbnInfer("v", "ghost", "EA");"#)
            .is_err());
        assert!(kernel.eval_mil("RETURN dbnInfer();").is_err());
    }
}
