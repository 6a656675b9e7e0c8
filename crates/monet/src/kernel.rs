//! The kernel: a catalog of named BATs plus MEL-style extension modules.
//!
//! Monet is "an extensible parallel database kernel […] extensible with
//! Abstract Data Types and new index structures". The Cobra paper extends
//! it with HMM, DBN, video-processing and rule modules written in MEL
//! (Monet Extension Language). [`MelModule`] is the Rust equivalent: an
//! extension registers named procedures which become callable from MIL
//! programs, exactly like `hmmOneCall` in the paper's Fig. 4.

use std::collections::HashMap;
use std::sync::Arc;

use cobra_cache::Lru;
use parking_lot::RwLock;

use crate::bat::Bat;
use crate::error::{MonetError, Result};
use crate::guard::ExecBudget;
use crate::index::ColumnIndex;
use crate::metrics::KernelMetrics;
use crate::mil::{self, MilValue};
use crate::sketch::{BatSketch, PlanStats};

/// Entry bound for the head-index cache; the least-recently-used entry is
/// evicted when a new BAT's index would exceed it.
const INDEX_CACHE_CAP: usize = 128;

/// Entry bound for the tail-sketch cache. Sketches are a few dozen bytes
/// each, so the cap exists only to bound id churn.
const SKETCH_CACHE_CAP: usize = 256;

/// A shareable handle to a catalog-resident (or MIL-local) BAT.
pub type BatHandle = Arc<RwLock<Bat>>;

/// An extension module in the spirit of MEL.
///
/// Modules expose procedures that MIL programs call by bare name (e.g.
/// `hmmOneCall(...)`). Procedures receive evaluated [`MilValue`] arguments
/// and the kernel itself, so they can read catalog BATs or spawn parallel
/// work.
pub trait MelModule: Send + Sync {
    /// Module name (used for error reporting and qualified calls).
    fn name(&self) -> &str;

    /// The procedure names this module exports.
    fn procedures(&self) -> Vec<String>;

    /// Invokes an exported procedure.
    fn call(&self, kernel: &Kernel, proc: &str, args: &[MilValue]) -> Result<MilValue>;
}

/// The Monet kernel: named BATs, extension modules, and a MIL entry point.
///
/// The kernel is `Send + Sync`; all catalog state sits behind locks so MIL
/// `PARALLEL` blocks and extension modules can touch it concurrently.
pub struct Kernel {
    bats: RwLock<HashMap<String, BatHandle>>,
    modules: RwLock<HashMap<String, Arc<dyn MelModule>>>,
    /// proc name -> module name, for bare-name resolution from MIL.
    procs: RwLock<HashMap<String, String>>,
    /// Head-column indexes keyed by BAT identity, tagged with the BAT
    /// version they were built at. A mutated BAT bumps its version, so a
    /// stale entry is detected (and rebuilt) on the next lookup. Bounded
    /// by [`INDEX_CACHE_CAP`] with per-entry LRU eviction.
    index_cache: Lru<u64, (u64, Arc<ColumnIndex>)>,
    /// Tail-column cardinality sketches for the plan coster, keyed and
    /// invalidated exactly like the head-index cache.
    sketch_cache: Lru<u64, (u64, Arc<BatSketch>)>,
    /// Observability: pre-resolved handles over this kernel's metric
    /// registry. Snapshot via `kernel.metrics().registry()`.
    metrics: Arc<KernelMetrics>,
    /// Fault injector of this kernel (`bat.*`, `proc.*` sites);
    /// disarmed unless a test arms it through [`Kernel::faults`].
    faults: cobra_faults::FaultHandle,
}

impl Kernel {
    /// Creates an empty kernel.
    pub fn new() -> Self {
        Kernel {
            bats: RwLock::new(HashMap::new()),
            modules: RwLock::new(HashMap::new()),
            procs: RwLock::new(HashMap::new()),
            index_cache: Lru::new(INDEX_CACHE_CAP),
            sketch_cache: Lru::new(SKETCH_CACHE_CAP),
            metrics: Arc::new(KernelMetrics::default()),
            faults: cobra_faults::FaultHandle::default(),
        }
    }

    /// This kernel's fault injector. Whoever builds a system around the
    /// kernel clones it into the other layers, so one
    /// `kernel.faults().scope(plan, || …)` scripts the whole instance.
    pub fn faults(&self) -> &cobra_faults::FaultHandle {
        &self.faults
    }

    /// This kernel's metric handles; snapshot the registry behind them
    /// for a point-in-time view of every series.
    pub fn metrics(&self) -> &Arc<KernelMetrics> {
        &self.metrics
    }

    /// A hash index over `bat`'s head column, cached per (BAT id, version).
    ///
    /// Returns `None` for void heads (positional lookup beats any index)
    /// and empty BATs. Join-heavy MIL programs probing the same catalog BAT
    /// repeatedly pay the build cost once per mutation instead of once per
    /// operator call.
    pub fn head_index(&self, bat: &Bat) -> Option<Arc<ColumnIndex>> {
        bat.head().data()?;
        let key = bat.id();
        if let Some((version, idx)) = self.index_cache.get(&key) {
            if version == bat.version() {
                self.metrics.index_hits.inc();
                return Some(idx);
            }
        }
        self.metrics.index_misses.inc();
        let built = Arc::new(ColumnIndex::build(bat.head())?);
        if self
            .index_cache
            .insert(key, (bat.version(), Arc::clone(&built)))
            .is_some()
        {
            self.metrics.index_evictions.inc();
        }
        Some(built)
    }

    /// Number of live entries in the head-index cache (for tests/metrics).
    pub fn cached_indexes(&self) -> usize {
        self.index_cache.len()
    }

    /// The tail sketch of `bat`, cached per (BAT id, version) — stale
    /// entries (a mutated BAT bumps its version) rebuild on lookup.
    pub fn tail_sketch(&self, bat: &Bat) -> Arc<BatSketch> {
        let key = bat.id();
        if let Some((version, sketch)) = self.sketch_cache.get(&key) {
            if version == bat.version() {
                self.metrics.sketch_hits.inc();
                return sketch;
            }
        }
        self.metrics.sketch_misses.inc();
        let built = Arc::new(BatSketch::build(bat));
        self.sketch_cache
            .insert(key, (bat.version(), Arc::clone(&built)));
        built
    }

    /// Assembles the measured statistics a planning pass runs against:
    /// per-opcode ns/row from the `mil.op_ns`/`mil.op_rows` histograms,
    /// index-cache hit rate, sequential vs parallel morsel throughput,
    /// and tail sketches for each named catalog collection (unknown
    /// names are simply absent, so planning stays total).
    pub fn plan_stats(&self, collections: &[&str]) -> PlanStats {
        let mut stats = PlanStats::default();
        let snap = self.metrics.registry().snapshot();
        let mut rows_per_op: HashMap<String, u64> = HashMap::new();
        for (key, h) in snap.histograms_named("mil.op_rows") {
            if let Some(op) = key.label("op") {
                rows_per_op.insert(op.to_string(), h.sum());
            }
        }
        for (key, h) in snap.histograms_named("mil.op_ns") {
            let Some(op) = key.label("op") else { continue };
            stats.ops_observed += h.count();
            let rows = rows_per_op.get(op).copied().unwrap_or(0);
            if rows > 0 && h.sum() > 0 {
                stats
                    .op_ns_per_row
                    .insert(op.to_string(), h.sum() as f64 / rows as f64);
            }
        }
        let (hits, misses) = (
            self.metrics.index_hits.get(),
            self.metrics.index_misses.get(),
        );
        if hits + misses > 0 {
            stats.index_hit_rate = Some(hits as f64 / (hits + misses) as f64);
        }
        let (seq_ns, seq_rows) = (
            self.metrics.morsel_seq_ns.get(),
            self.metrics.morsel_seq_rows.get(),
        );
        if seq_rows > 0 {
            stats.seq_ns_per_row = Some(seq_ns as f64 / seq_rows as f64);
        }
        let (par_ns, par_rows) = (
            self.metrics.morsel_par_ns.get(),
            self.metrics.morsel_par_rows.get(),
        );
        if par_rows > 0 {
            stats.par_ns_per_row = Some(par_ns as f64 / par_rows as f64);
        }
        for &name in collections {
            if let Ok(handle) = self.bat(name) {
                let sketch = self.tail_sketch(&handle.read());
                stats.sketches.insert(name.to_string(), sketch);
            }
        }
        stats
    }

    /// Registers `bat` in the catalog under `name`. Fails when taken.
    pub fn register_bat(&self, name: &str, bat: Bat) -> Result<BatHandle> {
        let mut bats = self.bats.write();
        if bats.contains_key(name) {
            return Err(MonetError::AlreadyExists(name.to_string()));
        }
        let handle = Arc::new(RwLock::new(bat));
        bats.insert(name.to_string(), Arc::clone(&handle));
        Ok(handle)
    }

    /// Registers or replaces `bat` under `name`.
    pub fn set_bat(&self, name: &str, bat: Bat) -> BatHandle {
        let handle = Arc::new(RwLock::new(bat));
        self.bats
            .write()
            .insert(name.to_string(), Arc::clone(&handle));
        handle
    }

    /// Fetches a catalog BAT by name.
    pub fn bat(&self, name: &str) -> Result<BatHandle> {
        self.bats
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| MonetError::NotFound(format!("BAT '{name}'")))
    }

    /// Removes a catalog BAT, returning it.
    pub fn drop_bat(&self, name: &str) -> Result<BatHandle> {
        self.bats
            .write()
            .remove(name)
            .ok_or_else(|| MonetError::NotFound(format!("BAT '{name}'")))
    }

    /// Names of every catalog BAT, sorted.
    pub fn bat_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.bats.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// True when `name` exists in the catalog.
    pub fn has_bat(&self, name: &str) -> bool {
        self.bats.read().contains_key(name)
    }

    /// Installs an extension module; its procedures become callable from
    /// MIL by bare name. Procedure-name collisions across modules fail.
    pub fn load_module(&self, module: Arc<dyn MelModule>) -> Result<()> {
        let mname = module.name().to_string();
        {
            let mut modules = self.modules.write();
            if modules.contains_key(&mname) {
                return Err(MonetError::AlreadyExists(format!("module '{mname}'")));
            }
            modules.insert(mname.clone(), Arc::clone(&module));
        }
        let mut procs = self.procs.write();
        for p in module.procedures() {
            if let Some(owner) = procs.get(&p) {
                return Err(MonetError::AlreadyExists(format!(
                    "procedure '{p}' (owned by module '{owner}')"
                )));
            }
            procs.insert(p, mname.clone());
        }
        Ok(())
    }

    /// Looks up a module by name.
    pub fn module(&self, name: &str) -> Result<Arc<dyn MelModule>> {
        self.modules
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| MonetError::NotFound(format!("module '{name}'")))
    }

    /// Resolves a bare procedure name to its owning module.
    pub fn resolve_proc(&self, proc: &str) -> Option<Arc<dyn MelModule>> {
        let owner = self.procs.read().get(proc).cloned()?;
        self.modules.read().get(&owner).cloned()
    }

    /// Calls an extension procedure by bare name.
    pub fn call_proc(&self, proc: &str, args: &[MilValue]) -> Result<MilValue> {
        // Fault site `proc.{name}`: lets tests fail specific extension
        // procedures without touching the module implementation.
        if self.faults.is_armed() {
            if let Err(fault) = self.faults.fire(&format!("proc.{proc}")) {
                self.metrics.record_failure(&format!("proc.{proc}"));
                return Err(fault.into());
            }
        }
        let module = self
            .resolve_proc(proc)
            .ok_or_else(|| MonetError::NotFound(format!("procedure '{proc}'")))?;
        self.metrics.proc_calls.inc();
        let start = std::time::Instant::now();
        let out = module.call(self, proc, args);
        self.metrics
            .record_proc(proc, start.elapsed().as_nanos() as u64);
        out
    }

    /// Parses and evaluates a MIL program against this kernel, returning
    /// the value of its final `RETURN` (or [`MilValue::Nil`]).
    ///
    /// Runs with no execution limits; see [`Kernel::eval_mil_guarded`].
    pub fn eval_mil(&self, source: &str) -> Result<MilValue> {
        self.metrics.mil_evals.inc();
        let start = std::time::Instant::now();
        let out = mil::eval_program(self, source);
        self.metrics
            .mil_eval_ns
            .record(start.elapsed().as_nanos() as u64);
        out
    }

    /// Like [`Kernel::eval_mil`], but bounded by `budget`: when the
    /// program exceeds its step fuel, wall-clock deadline, or is
    /// cancelled, evaluation stops with [`MonetError::BudgetExhausted`],
    /// [`MonetError::Deadline`], or [`MonetError::Interrupted`].
    pub fn eval_mil_guarded(&self, source: &str, budget: &ExecBudget) -> Result<MilValue> {
        self.metrics.mil_evals.inc();
        let start = std::time::Instant::now();
        let out = mil::eval_program_guarded(self, source, budget);
        self.metrics
            .mil_eval_ns
            .record(start.elapsed().as_nanos() as u64);
        out
    }
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Atom, AtomType};

    struct EchoModule;

    impl MelModule for EchoModule {
        fn name(&self) -> &str {
            "echo"
        }
        fn procedures(&self) -> Vec<String> {
            vec!["echoInt".into(), "echoFail".into()]
        }
        fn call(&self, _k: &Kernel, proc: &str, args: &[MilValue]) -> Result<MilValue> {
            match proc {
                "echoInt" => Ok(args[0].clone()),
                "echoFail" => Err(MonetError::Module {
                    module: "echo".into(),
                    message: "boom".into(),
                }),
                other => Err(MonetError::NotFound(other.to_string())),
            }
        }
    }

    #[test]
    fn catalog_register_get_drop() {
        let k = Kernel::new();
        k.register_bat("x", Bat::new(AtomType::Void, AtomType::Int))
            .unwrap();
        assert!(k.has_bat("x"));
        assert!(k.register_bat("x", Bat::default()).is_err());
        assert_eq!(k.bat_names(), vec!["x".to_string()]);
        k.drop_bat("x").unwrap();
        assert!(k.bat("x").is_err());
    }

    #[test]
    fn set_bat_replaces() {
        let k = Kernel::new();
        k.set_bat("x", Bat::new(AtomType::Void, AtomType::Int));
        k.set_bat(
            "x",
            Bat::from_tail(AtomType::Dbl, [Atom::Dbl(1.0)]).unwrap(),
        );
        assert_eq!(k.bat("x").unwrap().read().len(), 1);
    }

    #[test]
    fn module_procs_resolve_by_bare_name() {
        let k = Kernel::new();
        k.load_module(Arc::new(EchoModule)).unwrap();
        let out = k
            .call_proc("echoInt", &[MilValue::Atom(Atom::Int(7))])
            .unwrap();
        assert_eq!(out, MilValue::Atom(Atom::Int(7)));
        assert!(k.call_proc("missing", &[]).is_err());
        assert!(k.call_proc("echoFail", &[]).is_err());
    }

    #[test]
    fn duplicate_module_load_fails() {
        let k = Kernel::new();
        k.load_module(Arc::new(EchoModule)).unwrap();
        assert!(k.load_module(Arc::new(EchoModule)).is_err());
    }

    #[test]
    fn kernel_is_shareable_across_threads() {
        let k = Arc::new(Kernel::new());
        k.set_bat("shared", Bat::new(AtomType::Void, AtomType::Int));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let k = Arc::clone(&k);
                std::thread::spawn(move || {
                    let bat = k.bat("shared").unwrap();
                    bat.write().append_void(Atom::Int(i)).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(k.bat("shared").unwrap().read().len(), 4);
    }

    #[test]
    fn head_index_is_cached_per_version() {
        let k = Kernel::new();
        let mut b = Bat::new(AtomType::Int, AtomType::Int);
        b.append(Atom::Int(7), Atom::Int(1)).unwrap();
        let first = k.head_index(&b).unwrap();
        let again = k.head_index(&b).unwrap();
        // Same version: the cached Arc is handed back, not a rebuild.
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(k.cached_indexes(), 1);

        // Mutation bumps the version; the stale entry is rebuilt in place.
        b.append(Atom::Int(9), Atom::Int(2)).unwrap();
        let rebuilt = k.head_index(&b).unwrap();
        assert!(!Arc::ptr_eq(&first, &rebuilt));
        assert_eq!(rebuilt.lookup_i64(9), &[1]);
        assert_eq!(k.cached_indexes(), 1);
    }

    #[test]
    fn head_index_evicts_per_entry_not_wholesale() {
        let k = Kernel::new();
        let bats: Vec<Bat> = (0..INDEX_CACHE_CAP as i64 + 16)
            .map(|i| {
                let mut b = Bat::new(AtomType::Int, AtomType::Int);
                b.append(Atom::Int(i), Atom::Int(i)).unwrap();
                b
            })
            .collect();
        for b in &bats {
            k.head_index(b).unwrap();
        }
        // Overflow displaces old entries one at a time instead of clearing
        // the whole cache, so residency stays at (roughly) the cap.
        assert!(k.cached_indexes() <= k.index_cache.capacity());
        assert!(k.cached_indexes() > INDEX_CACHE_CAP / 2);
        assert!(k.metrics.index_evictions.get() > 0);
        // The most recent BAT is still resident: probing it again is a hit.
        let hits_before = k.metrics.index_hits.get();
        k.head_index(bats.last().unwrap()).unwrap();
        assert_eq!(k.metrics.index_hits.get(), hits_before + 1);
    }

    #[test]
    fn head_index_skips_void_heads() {
        let k = Kernel::new();
        let b = Bat::from_tail(AtomType::Int, (0..3).map(Atom::Int)).unwrap();
        assert!(k.head_index(&b).is_none());
        assert_eq!(k.cached_indexes(), 0);
    }
}
