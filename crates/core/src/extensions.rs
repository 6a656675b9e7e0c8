//! The VDBMS extensions and the pre-processor's cost/quality model.
//!
//! The paper integrates its knowledge-based techniques "in all three
//! layers of the DBMS architecture (not only in one place)". At the
//! physical level that means MEL modules: [`DbnModule`] exposes DBN
//! inference as kernel procedures operating directly on catalog feature
//! BATs (the role the paper's Matlab server played, Fig. 5), alongside
//! `f1_hmm::mel::HmmModule`.
//!
//! [`MethodRegistry`] is the query pre-processor's decision table: "
//! depending on the (un)availability of metadata … as well as the cost
//! and quality models of the method, it makes a decision which method and
//! feature set to use to fulfil the query" (§2).

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use f1_bayes::engine::{Engine, Posteriors};
use f1_bayes::evidence::EvidenceSeq;
use f1_bayes::paper::PaperNet;
use f1_bayes::slice::NodeId;
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

/// The posterior of every node of `net` over the committed feature rows
/// of `video`: one read through the one loader, one engine compile, one
/// Boyen–Koller filter pass. Whatever filters a whole video — training's
/// calibration, annotation, the paper tables, `dbnInfer` — reads off it.
pub fn posterior(kernel: &Kernel, video: &str, net: &PaperNet) -> crate::Result<Posteriors> {
    let rows = load_feature_rows(kernel, video, net.feature_nodes.len())?;
    let evidence = EvidenceSeq::from_matrix(&net.feature_nodes, &rows);
    Ok(Engine::new(&net.dbn)?.filter(&evidence, None)?)
}

impl StoredNet {
    /// Every query's trace (probability of state 1 per clip) over
    /// `video`, by query name, off one [`posterior`].
    pub fn infer(&self, kernel: &Kernel, video: &str) -> crate::Result<HashMap<String, Vec<f64>>> {
        let post = posterior(kernel, video, &self.net)?;
        (self.queries.iter())
            .map(|(query, node)| Ok((query.clone(), post.trace(*node, 1)?)))
            .collect()
    }
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
                let nets = self.nets.read();
                let mut names: Vec<&String> = nets.keys().collect();
                names.sort();
                for n in names {
                    out.append_void(Atom::str(n))?;
                }
                Ok(MilValue::new_bat(out))
            }
            "dbnInfer" => {
                // dbnInfer(video, netName, queryNode) -> [void,dbl] trace:
                // one query's pick off the network's `posterior`.
                let arg = |i: usize| {
                    let value = args.get(i);
                    let value = value.ok_or_else(|| module_err("dbnInfer(video, net, query)"))?;
                    value.as_atom().map_err(module_err)
                };
                let (video, net_name, query) = (arg(0)?, arg(1)?, arg(2)?);
                let nets = self.nets.read();
                let stored = nets
                    .get(net_name.as_str()?)
                    .ok_or_else(|| module_err(format!("no network '{}'", net_name)))?;
                let query_id = stored
                    .queries
                    .iter()
                    .find(|(n, _)| n == query.as_str().unwrap_or(""))
                    .map(|(_, id)| *id)
                    .ok_or_else(|| module_err(format!("no query node '{query}'")))?;
                let post = posterior(kernel, video.as_str()?, &stored.net).map_err(module_err)?;
                let trace = post.trace(query_id, 1).map_err(module_err)?;
                let out = Bat::from_tail(AtomType::Dbl, trace.into_iter().map(Atom::Dbl))?;
                Ok(MilValue::new_bat(out))
            }
            other => Err(MonetError::NotFound(format!("dbn.{other}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Cost/quality model
// ---------------------------------------------------------------------------

/// How the pre-processor retries a method before falling back to the
/// next one in the ranking.
///
/// Only *transient* failures (fault sites injected with
/// `fail_transient`, i.e. errors a re-run can plausibly clear) are
/// retried; permanent errors fall through to the next method at once.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RetryPolicy {
    /// Extra attempts after the first failure (0 = never retry).
    pub max_retries: u32,
    /// Pause between attempts. The default of 0 keeps ingestion (and
    /// the fault-injection tests) deterministic and wall-clock free.
    pub backoff_ms: u64,
}

/// A method's cost/quality profile.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MethodProfile {
    /// Method name.
    pub name: String,
    /// Abstract cost per clip (the pre-processor's currency).
    pub cost_per_clip: f64,
    /// Expected quality in `[0, 1]`.
    pub quality: f64,
    /// Retry behaviour on transient failure.
    #[serde(default)]
    pub retry: RetryPolicy,
}

// ---------------------------------------------------------------------------
// Measured cost model
// ---------------------------------------------------------------------------

/// EWMA smoothing for observed per-clip costs: high, so the model reacts
/// to a degraded dependency within one or two observations.
pub const EWMA_ALPHA: f64 = 0.7;

/// How hard a quality shortfall penalizes a method's score: a method
/// `0.1` below the floor costs `1 + 50 * 0.1 = 6x` its base. Large
/// enough that static rankings keep quality-meeting methods first, small
/// enough that a severely degraded primary (measured slowdown beyond
/// that factor) loses to a healthy lower-quality fallback.
pub const QUALITY_PENALTY: f64 = 50.0;

/// Measured statistics for one method, in milliseconds per clip.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostStat {
    /// Exponentially weighted moving average of observed cost.
    pub ewma_ms_per_clip: f64,
    /// Best (fastest) observation ever — the method's demonstrated
    /// healthy speed on this machine.
    pub best_ms_per_clip: f64,
    /// Successful observations recorded.
    pub samples: u64,
    /// Failures recorded.
    pub failures: u64,
}

impl CostStat {
    /// Current slowdown relative to the method's own demonstrated best,
    /// `>= 1`. Self-relative, so it is machine-speed independent: an
    /// unmeasured or healthy method reports `1.0`, a method whose recent
    /// runs take 5x its best reports `~5`.
    pub fn slowdown(&self) -> f64 {
        if self.samples == 0 || self.best_ms_per_clip <= 0.0 {
            1.0
        } else {
            (self.ewma_ms_per_clip / self.best_ms_per_clip).max(1.0)
        }
    }
}

/// The pre-processor's measured cost model: per-method observed costs
/// feeding [`MethodRegistry::ranked`].
///
/// Declared [`MethodProfile::cost_per_clip`] values stay the ranking
/// currency; measurements enter as the *slowdown ratio* of a method's
/// recent cost over its own best observation. With no measurements every
/// ratio is `1` and the ranking is exactly the static table, so cold
/// systems behave as before; once a method degrades (e.g. a slow
/// dependency), its inflated ratio demotes it below fallbacks.
///
/// Methods are keyed by name across tasks (names are unique in the
/// Formula 1 table). Thread-safe; share via `Arc`.
#[derive(Default)]
pub struct CostModel {
    stats: RwLock<HashMap<String, CostStat>>,
}

impl std::fmt::Debug for CostModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CostModel({} methods measured)", self.stats.read().len())
    }
}

impl CostModel {
    /// An empty model (pure static ranking).
    pub fn new() -> Self {
        CostModel::default()
    }

    /// Records a successful run of `method` at `ms_per_clip`.
    pub fn observe(&self, method: &str, ms_per_clip: f64) {
        if !ms_per_clip.is_finite() || ms_per_clip < 0.0 {
            return;
        }
        let mut stats = self.stats.write();
        let s = stats.entry(method.to_string()).or_default();
        if s.samples == 0 {
            s.ewma_ms_per_clip = ms_per_clip;
            s.best_ms_per_clip = ms_per_clip;
        } else {
            s.ewma_ms_per_clip = EWMA_ALPHA * ms_per_clip + (1.0 - EWMA_ALPHA) * s.ewma_ms_per_clip;
            s.best_ms_per_clip = s.best_ms_per_clip.min(ms_per_clip);
        }
        s.samples += 1;
    }

    /// Records a failed run of `method`.
    pub fn observe_failure(&self, method: &str) {
        self.stats
            .write()
            .entry(method.to_string())
            .or_default()
            .failures += 1;
    }

    /// Measured statistics for `method`, if any run was recorded.
    pub fn stat(&self, method: &str) -> Option<CostStat> {
        self.stats.read().get(method).copied()
    }

    /// The ranking score of `profile` under a quality floor: declared
    /// cost, inflated by the measured slowdown ratio, a failure penalty,
    /// and the quality-shortfall penalty. Lower is better.
    pub fn score(&self, profile: &MethodProfile, min_quality: f64) -> f64 {
        let stat = self.stat(&profile.name).unwrap_or_default();
        let quality_gap = (min_quality - profile.quality).max(0.0);
        profile.cost_per_clip
            * stat.slowdown()
            * (1.0 + stat.failures as f64)
            * (1.0 + QUALITY_PENALTY * quality_gap)
    }

    /// Persists the model as a line-oriented text table (the vendored
    /// serde stubs cannot parse JSON back, so persistence is hand-rolled
    /// and [`Self::to_json`] is export-only).
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        let stats = self.stats.read();
        let mut names: Vec<&String> = stats.keys().collect();
        names.sort();
        let mut out = String::from("# cobra cost model v1\n");
        for name in names {
            let s = stats[name];
            out.push_str(&format!(
                "{name}\t{}\t{}\t{}\t{}\n",
                s.ewma_ms_per_clip, s.best_ms_per_clip, s.samples, s.failures
            ));
        }
        std::fs::write(path, out)
    }

    /// Loads a model previously written by [`Self::save`]. Malformed
    /// lines are skipped rather than failing the load.
    pub fn load(path: &std::path::Path) -> std::io::Result<CostModel> {
        let text = std::fs::read_to_string(path)?;
        let model = CostModel::new();
        {
            let mut stats = model.stats.write();
            for line in text.lines() {
                let line = line.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                let mut parts = line.split('\t');
                let (Some(name), Some(ewma), Some(best), Some(samples), Some(failures)) = (
                    parts.next(),
                    parts.next().and_then(|v| v.parse::<f64>().ok()),
                    parts.next().and_then(|v| v.parse::<f64>().ok()),
                    parts.next().and_then(|v| v.parse::<u64>().ok()),
                    parts.next().and_then(|v| v.parse::<u64>().ok()),
                ) else {
                    continue;
                };
                stats.insert(
                    name.to_string(),
                    CostStat {
                        ewma_ms_per_clip: ewma,
                        best_ms_per_clip: best,
                        samples,
                        failures,
                    },
                );
            }
        }
        Ok(model)
    }

    /// One-way JSON export of the measured statistics.
    pub fn to_json(&self) -> serde_json::Value {
        let stats = self.stats.read();
        let mut methods = std::collections::BTreeMap::new();
        for (name, s) in stats.iter() {
            methods.insert(
                name.clone(),
                serde_json::json!({
                    "ewma_ms_per_clip": (s.ewma_ms_per_clip),
                    "best_ms_per_clip": (s.best_ms_per_clip),
                    "slowdown": (s.slowdown()),
                    "samples": (s.samples as f64),
                    "failures": (s.failures as f64),
                }),
            );
        }
        serde_json::Value::Object(methods)
    }
}

/// The pre-processor's method table, per extraction task, consulting a
/// shared measured [`CostModel`].
#[derive(Debug, Clone, Default)]
pub struct MethodRegistry {
    methods: HashMap<String, Vec<MethodProfile>>,
    cost_model: Arc<CostModel>,
}

impl MethodRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MethodRegistry::default()
    }

    /// The default table of the Formula 1 system: two feature-extraction
    /// configurations. The full extractor is worth one retry on a
    /// transient failure before ingestion degrades to the fast profile,
    /// which fails over at once.
    pub fn formula1() -> Self {
        let mut r = MethodRegistry::new();
        r.add(
            "feature_extraction",
            MethodProfile {
                name: "full".into(),
                cost_per_clip: 10.0,
                quality: 0.95,
                retry: RetryPolicy {
                    max_retries: 1,
                    backoff_ms: 0,
                },
            },
        );
        r.add(
            "feature_extraction",
            MethodProfile {
                name: "fast".into(),
                cost_per_clip: 4.0,
                quality: 0.8,
                retry: RetryPolicy::default(),
            },
        );
        r
    }

    /// Registers a method for a task.
    pub fn add(&mut self, task: &str, profile: MethodProfile) {
        self.methods
            .entry(task.to_string())
            .or_default()
            .push(profile);
    }

    /// The shared measured cost model behind the ranking.
    pub fn cost_model(&self) -> &Arc<CostModel> {
        &self.cost_model
    }

    /// The best method for `task` under `min_quality`: the head of
    /// [`ranked`](Self::ranked). On an unmeasured system this is the
    /// cheapest method meeting the quality floor, or — when none does —
    /// the highest-quality one available.
    pub fn choose(&self, task: &str, min_quality: f64) -> Option<&MethodProfile> {
        self.ranked(task, min_quality).into_iter().next()
    }

    /// The fallback order for `task`, best score first per
    /// [`CostModel::score`]: declared cost inflated by the measured
    /// slowdown ratio, failures, and the quality-shortfall penalty.
    ///
    /// With no measurements this reproduces the static ordering (methods
    /// meeting `min_quality` cheapest-first, then the rest by quality) —
    /// but once the cost model records a primary method running far
    /// slower than its own best, the inflated score demotes it below a
    /// healthy fallback. Empty only when the task itself is unknown.
    pub fn ranked(&self, task: &str, min_quality: f64) -> Vec<&MethodProfile> {
        let Some(candidates) = self.methods.get(task) else {
            return Vec::new();
        };
        let mut out: Vec<&MethodProfile> = candidates.iter().collect();
        out.sort_by(|a, b| {
            self.cost_model
                .score(a, min_quality)
                .total_cmp(&self.cost_model.score(b, min_quality))
                .then_with(|| a.name.cmp(&b.name))
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f1_bayes::paper::{audio_bn, BnStructure};

    #[test]
    fn method_choice_balances_cost_and_quality() {
        let r = MethodRegistry::formula1();
        // Low quality requirement: the cheap method wins.
        assert_eq!(r.choose("feature_extraction", 0.7).unwrap().name, "fast");
        // High requirement: the expensive one.
        assert_eq!(r.choose("feature_extraction", 0.9).unwrap().name, "full");
        // Impossible requirement: fall back to the best available.
        assert_eq!(r.choose("feature_extraction", 0.99).unwrap().name, "full");
        assert_eq!(r.choose("nonexistent", 0.5), None);
    }

    #[test]
    fn ranking_orders_fallbacks_by_cost_then_quality() {
        let r = MethodRegistry::formula1();
        // Both extraction methods are always in the order, primary first.
        let names: Vec<&str> = r
            .ranked("feature_extraction", 0.9)
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        assert_eq!(names, ["full", "fast"]);
        // With a lax requirement the cheap method becomes primary and
        // the expensive one the fallback.
        let names: Vec<&str> = r
            .ranked("feature_extraction", 0.7)
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        assert_eq!(names, ["fast", "full"]);
        // The head of the ranking always agrees with `choose`.
        for min_q in [0.7, 0.9, 0.99] {
            assert_eq!(
                (r.ranked("feature_extraction", min_q).first()).map(|m| m.name.clone()),
                r.choose("feature_extraction", min_q)
                    .map(|m| m.name.clone()),
            );
        }
        assert!(r.ranked("nonexistent", 0.5).is_empty());
    }

    #[test]
    fn measured_slowdown_reorders_the_ranking() {
        let r = MethodRegistry::formula1();
        // Establish healthy baselines for both extraction methods.
        r.cost_model().observe("full", 1.0);
        r.cost_model().observe("fast", 1.0);
        let names: Vec<&str> = r
            .ranked("feature_extraction", 0.9)
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        assert_eq!(names, ["full", "fast"], "healthy ranking is static");
        // Now "full" degrades badly: its score 10 * slowdown overtakes
        // fast's quality-penalized 24 once slowdown exceeds 2.4.
        r.cost_model().observe("full", 10.0);
        assert!(r.cost_model().stat("full").unwrap().slowdown() > 2.4);
        let names: Vec<&str> = r
            .ranked("feature_extraction", 0.9)
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        assert_eq!(names, ["fast", "full"], "degraded primary is demoted");
        assert_eq!(r.choose("feature_extraction", 0.9).unwrap().name, "fast");
    }

    #[test]
    fn failures_penalize_a_methods_score() {
        let r = MethodRegistry::formula1();
        let full = r.choose("feature_extraction", 0.9).unwrap().clone();
        let base = r.cost_model().score(&full, 0.9);
        r.cost_model().observe_failure("full");
        r.cost_model().observe_failure("full");
        assert_eq!(r.cost_model().score(&full, 0.9), base * 3.0);
    }

    #[test]
    fn ewma_tracks_recent_observations_and_best_is_min() {
        let m = CostModel::new();
        m.observe("x", 4.0);
        m.observe("x", 2.0);
        m.observe("x", 2.0);
        let s = m.stat("x").unwrap();
        assert_eq!(s.best_ms_per_clip, 2.0);
        assert_eq!(s.samples, 3);
        assert!(s.ewma_ms_per_clip < 4.0 && s.ewma_ms_per_clip > 2.0);
        // Non-finite and negative observations are ignored.
        m.observe("x", f64::NAN);
        m.observe("x", -1.0);
        assert_eq!(m.stat("x").unwrap().samples, 3);
        assert_eq!(m.stat("missing"), None);
    }

    #[test]
    fn cost_model_round_trips_through_its_text_format() {
        let dir = std::env::temp_dir().join(format!("cobra-costmodel-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cost_model.tsv");
        let m = CostModel::new();
        m.observe("full", 1.5);
        m.observe("full", 3.0);
        m.observe_failure("fast");
        m.save(&path).unwrap();
        let loaded = CostModel::load(&path).unwrap();
        assert_eq!(loaded.stat("full"), m.stat("full"));
        assert_eq!(loaded.stat("fast").unwrap().failures, 1);
        // JSON export carries the same methods.
        let json = loaded.to_json().to_string();
        assert!(json.contains("\"full\"") && json.contains("ewma_ms_per_clip"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dbn_module_infers_over_catalog_bats() {
        use std::sync::Arc;
        let kernel = Kernel::new();
        let nets: NetStore = Arc::new(RwLock::new(HashMap::new()));
        let bn = audio_bn(BnStructure::FullyParameterized).unwrap();
        let query = bn.query;
        nets.write().insert(
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
        let bat = bat.read();
        assert_eq!(bat.len(), 3);
        let p0 = bat.tail_at(0).unwrap().as_dbl().unwrap();
        let p1 = bat.tail_at(1).unwrap().as_dbl().unwrap();
        assert!(p1 > p0 + 0.2, "excited clip {p1} vs quiet {p0}");
        // The procedure returns its trace and binds nothing.
        assert!(!kernel.bat_names().iter().any(|name| name.contains("trace")));
        // dbnList exposes the store.
        let names = kernel.eval_mil("RETURN dbnList();").unwrap();
        assert_eq!(names.as_bat().unwrap().read().len(), 1);
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
