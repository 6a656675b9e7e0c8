//! The kernel: a catalog of named BATs plus MEL-style extension modules.
//!
//! Monet is "an extensible parallel database kernel […] extensible with
//! Abstract Data Types and new index structures". The Cobra paper extends
//! it with HMM, DBN, video-processing and rule modules written in MEL
//! (Monet Extension Language). [`MelModule`] is the Rust equivalent: an
//! extension registers named procedures which become callable from MIL
//! programs, exactly like `hmmOneCall` in the paper's Fig. 4.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use cobra_cache::Lru;
use cobra_faults::Recover;

use crate::bat::Bat;
use crate::error::{MonetError, Result};
use crate::guard::ExecBudget;
use crate::index::ColumnIndex;
use crate::metrics::KernelMetrics;
use crate::mil::{self, MilValue, Prepared};
use crate::ops::{self, OpCtx};
use crate::sketch::{BatSketch, PlanStats};
use crate::value::Atom;

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
    /// Tail value indexes of catalog BATs, one per catalog name
    /// ([`value_index`](Self::value_index)); lock order: `bats` first.
    index_cache: RwLock<HashMap<String, NamedIndex>>,
    /// Tail-column cardinality sketches for the plan coster, keyed by
    /// BAT identity and tagged with the version they were built at: a
    /// mutated BAT bumps its version, so a stale entry rebuilds on lookup.
    sketch_cache: Lru<u64, (u64, Arc<BatSketch>)>,
    /// Observability: pre-resolved handles over this kernel's metric
    /// registry. Snapshot via `kernel.metrics().registry()`.
    metrics: Arc<KernelMetrics>,
    /// Fault injector of this kernel (`bat.*`, `proc.*` sites);
    /// disarmed unless a test arms it through [`Kernel::faults`].
    faults: cobra_faults::FaultHandle,
}

/// The value index cached for one catalog name: valid for exactly the
/// BAT (by id) and the version it was built over.
struct NamedIndex {
    bat: u64,
    version: u64,
    index: Arc<ColumnIndex>,
}

impl Kernel {
    /// Creates an empty kernel.
    pub fn new() -> Self {
        Kernel {
            bats: RwLock::new(HashMap::new()),
            modules: RwLock::new(HashMap::new()),
            procs: RwLock::new(HashMap::new()),
            index_cache: RwLock::new(HashMap::new()),
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

    /// MIL's `b.select(v)` over the BAT `handle` holds: when the program
    /// read it by the catalog name `catalog`, the rows its value index
    /// lists for `v` (counted as a cache hit or a build); otherwise, or
    /// when the index cannot answer `v` exactly, a morsel scan.
    pub(crate) fn select_eq(
        &self,
        catalog: Option<&str>,
        handle: &BatHandle,
        v: &Atom,
        ctx: &OpCtx<'_>,
    ) -> Result<Bat> {
        let bat = handle.read().recover();
        if let Some(name) = catalog {
            if let Some((index, hit)) = self.value_index(name, handle, &bat, ctx)? {
                if let Some(out) = ops::select_eq_indexed(&bat, v, &index, ctx)? {
                    let used = if hit {
                        &self.metrics.index_hits
                    } else {
                        &self.metrics.index_misses
                    };
                    used.inc();
                    return Ok(out);
                }
            }
        }
        ops::select_eq(&bat, v, ctx)
    }

    /// The value index over the tail of `bat`, which a MIL evaluation
    /// read by the catalog name `name` as `handle`, and whether the cache
    /// held it; `None` for a void tail, which selects positionally.
    ///
    /// The cache keeps one index per name, valid for exactly one (BAT
    /// id, version), so it never serves a stale row: a rebind makes the
    /// next probe rebuild, and an in-place append carries the index to
    /// the new version ([`update_unshared`](Self::update_unshared)). A
    /// build is charged to `ctx` like the scan it replaces, and kept only
    /// while `name` still binds `handle`: a reader of a superseded layer
    /// builds, uses and drops its own.
    fn value_index(
        &self,
        name: &str,
        handle: &BatHandle,
        bat: &Bat,
        ctx: &OpCtx<'_>,
    ) -> Result<Option<(Arc<ColumnIndex>, bool)>> {
        if let Some(entry) = self.index_cache.read().recover().get(name) {
            if (entry.bat, entry.version) == (bat.id(), bat.version()) {
                return Ok(Some((Arc::clone(&entry.index), true)));
            }
        }
        let Some(index) = ops::index_tail(bat, ctx)? else {
            return Ok(None);
        };
        let index = Arc::new(index);
        // Under the name map's read lock, which every rebind holds for
        // writing while it releases, no rebind slips between the check
        // and the insert.
        let bats = self.bats.read().recover();
        if bats
            .get(name)
            .is_some_and(|bound| Arc::ptr_eq(bound, handle))
        {
            let entry = NamedIndex {
                bat: bat.id(),
                version: bat.version(),
                index: Arc::clone(&index),
            };
            if self
                .index_cache
                .write()
                .recover()
                .insert(name.to_string(), entry)
                .is_some()
            {
                self.metrics.index_evictions.inc();
            }
        }
        Ok(Some((index, false)))
    }

    /// Releases the cached value indexes of `names`, whose bindings are
    /// changing. Caller holds the name map for writing.
    fn release_indexes<'n>(&self, names: impl IntoIterator<Item = &'n str>) {
        let mut cache = self.index_cache.write().recover();
        for name in names {
            if cache.remove(name).is_some() {
                self.metrics.index_evictions.inc();
            }
        }
    }

    /// Number of catalog names holding a cached value index.
    pub fn cached_indexes(&self) -> usize {
        self.index_cache.read().recover().len()
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
    /// sequential vs parallel morsel throughput,
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
            let rows = rows_per_op.get(op).copied().unwrap_or(0);
            if rows > 0 && h.sum() > 0 {
                stats
                    .op_ns_per_row
                    .insert(op.to_string(), h.sum() as f64 / rows as f64);
            }
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
                let sketch = self.tail_sketch(&handle.read().recover());
                stats.sketches.insert(name.to_string(), sketch);
            }
        }
        stats
    }

    /// Registers `bat` in the catalog under `name`. Fails when taken.
    pub fn register_bat(&self, name: &str, bat: Bat) -> Result<BatHandle> {
        let mut bats = self.bats.write().recover();
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
        let mut bats = self.bats.write().recover();
        self.release_indexes([name]);
        bats.insert(name.to_string(), Arc::clone(&handle));
        handle
    }

    /// Registers or replaces a group of BATs under one write acquisition
    /// of the name map: a reader fetching the group with
    /// [`bats`](Self::bats) gets every name's old BAT or every name's
    /// new one, never a mix.
    pub fn set_bats<N: Into<String>>(&self, group: impl IntoIterator<Item = (N, Bat)>) {
        let group: Vec<(String, BatHandle)> = group
            .into_iter()
            .map(|(name, bat)| (name.into(), Arc::new(RwLock::new(bat))))
            .collect();
        let mut bats = self.bats.write().recover();
        self.release_indexes(group.iter().map(|(name, _)| name.as_str()));
        bats.extend(group);
    }

    /// Changes a group of BATs where they lie, under one write acquisition
    /// of the name map, when the map holds the only handle to each: no
    /// reader can reach them while the lock is held, so the change is as
    /// atomic as [`set_bats`](Self::set_bats) without copying a row. A
    /// cached value index of a BAT the change only appended to stays
    /// cached, extended by the rows appended, so the next reader finds
    /// it; any other change releases it. Returns `None`, having run
    /// nothing, when a name is unbound or named twice, or a reader still
    /// holds one of the BATs.
    pub fn update_unshared<const N: usize, T>(
        &self,
        names: [&str; N],
        update: impl FnOnce([&mut Bat; N]) -> T,
    ) -> Option<T> {
        if (1..N).any(|i| names[..i].contains(&names[i])) {
            return None;
        }
        let mut map = self.bats.write().recover();
        let mut group = Vec::with_capacity(N);
        for handle in map.get_disjoint_mut(names) {
            group.push(Arc::get_mut(handle?)?.get_mut().recover());
        }
        let group: [&mut Bat; N] = group.try_into().ok()?;
        let before = group
            .each_ref()
            .map(|bat| (bat.id(), bat.version(), bat.len()));
        let out = update(group);
        self.carry_indexes(&map, names, before);
        Some(out)
    }

    /// After an in-place update of `names`, which found each BAT at
    /// `before` (id, version, rows): keeps each cached index that was
    /// valid then, of a BAT the update only appended to, valid for the
    /// grown BAT by extending it by the rows appended, and releases the
    /// others. Caller holds the name map, `map`, for writing.
    fn carry_indexes<const N: usize>(
        &self,
        map: &HashMap<String, BatHandle>,
        names: [&str; N],
        before: [(u64, u64, usize); N],
    ) {
        let mut cache = self.index_cache.write().recover();
        for (name, (id, version, rows)) in names.into_iter().zip(before) {
            let Some(entry) = cache.get_mut(name) else {
                continue;
            };
            let carried = map.get(name).and_then(|handle| {
                let bat = handle.read().recover();
                let grown = (entry.bat, entry.version) == (id, version)
                    && bat.id() == id
                    && bat.appended_since(version);
                let extended = grown && Arc::make_mut(&mut entry.index).extend(bat.tail(), rows);
                extended.then(|| bat.version())
            });
            match carried {
                Some(version) => entry.version = version,
                None => {
                    cache.remove(name);
                    self.metrics.index_evictions.inc();
                }
            }
        }
    }

    /// Fetches a catalog BAT by name.
    pub fn bat(&self, name: &str) -> Result<BatHandle> {
        self.bats
            .read()
            .recover()
            .get(name)
            .cloned()
            .ok_or_else(|| MonetError::NotFound(format!("BAT '{name}'")))
    }

    /// Fetches a group of catalog BATs under one read acquisition of the
    /// name map (`None` for a name that is unbound): the group as one
    /// [`set_bats`](Self::set_bats) left it.
    pub fn bats<const N: usize>(&self, names: [&str; N]) -> [Option<BatHandle>; N] {
        let map = self.bats.read().recover();
        names.map(|name| map.get(name).cloned())
    }

    /// Removes a catalog BAT, returning it.
    pub fn drop_bat(&self, name: &str) -> Result<BatHandle> {
        let mut bats = self.bats.write().recover();
        self.release_indexes([name]);
        bats.remove(name)
            .ok_or_else(|| MonetError::NotFound(format!("BAT '{name}'")))
    }

    /// Names of every catalog BAT, sorted.
    pub fn bat_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.bats.read().recover().keys().cloned().collect();
        names.sort();
        names
    }

    /// True when `name` exists in the catalog.
    pub fn has_bat(&self, name: &str) -> bool {
        self.bats.read().recover().contains_key(name)
    }

    /// Installs an extension module; its procedures become callable from
    /// MIL by bare name. Procedure-name collisions across modules fail.
    pub fn load_module(&self, module: Arc<dyn MelModule>) -> Result<()> {
        let mname = module.name().to_string();
        {
            let mut modules = self.modules.write().recover();
            if modules.contains_key(&mname) {
                return Err(MonetError::AlreadyExists(format!("module '{mname}'")));
            }
            modules.insert(mname.clone(), Arc::clone(&module));
        }
        let mut procs = self.procs.write().recover();
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
            .recover()
            .get(name)
            .cloned()
            .ok_or_else(|| MonetError::NotFound(format!("module '{name}'")))
    }

    /// Resolves a bare procedure name to its owning module.
    pub fn resolve_proc(&self, proc: &str) -> Option<Arc<dyn MelModule>> {
        let owner = self.procs.read().recover().get(proc).cloned()?;
        self.modules.read().recover().get(&owner).cloned()
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

    /// Lexes and parses a MIL program once, for any number of
    /// [`eval_prepared`](Self::eval_prepared) calls: its `$k` are
    /// parameters, bound at each evaluation. Counted as `mil.parses`.
    pub fn prepare(&self, source: &str) -> Result<Prepared> {
        self.metrics.mil_parses.inc();
        Prepared::parse(source)
    }

    /// Evaluates a prepared program against this kernel with `$k` read
    /// as `params[k]`, returning the value of its final `RETURN` (or
    /// [`MilValue::Nil`]); an unbound `$k` is an eval error. Bounded by
    /// `budget`: a program that exceeds its step fuel, wall-clock
    /// deadline, or is cancelled stops with
    /// [`MonetError::BudgetExhausted`], [`MonetError::Deadline`], or
    /// [`MonetError::Interrupted`]. `bat(name)` reads each name of
    /// `bound` as the BAT given with it instead of looking it up: a
    /// program over a group its caller fetched together
    /// ([`bats`](Self::bats)) reads that group whatever is rebound
    /// meanwhile.
    pub fn eval_prepared(
        &self,
        program: &Prepared,
        params: &[Atom],
        budget: &ExecBudget,
        bound: &[(&str, &BatHandle)],
    ) -> Result<MilValue> {
        self.evaluate(|| mil::eval_program(self, program, params, budget, bound))
    }

    /// Parses and evaluates a MIL program against this kernel, returning
    /// the value of its final `RETURN` (or [`MilValue::Nil`]).
    ///
    /// Runs with no execution limits; see [`Kernel::eval_mil_guarded`].
    pub fn eval_mil(&self, source: &str) -> Result<MilValue> {
        self.eval_mil_guarded(source, &ExecBudget::unlimited())
    }

    /// Like [`Kernel::eval_mil`], but bounded by `budget` as
    /// [`eval_prepared`](Self::eval_prepared) is.
    pub fn eval_mil_guarded(&self, source: &str, budget: &ExecBudget) -> Result<MilValue> {
        self.eval_mil_bound(source, budget, &[])
    }

    /// [`prepare`](Self::prepare) and one
    /// [`eval_prepared`](Self::eval_prepared) without parameters, timed
    /// as one evaluation.
    pub fn eval_mil_bound(
        &self,
        source: &str,
        budget: &ExecBudget,
        bound: &[(&str, &BatHandle)],
    ) -> Result<MilValue> {
        self.evaluate(|| {
            let program = self.prepare(source)?;
            mil::eval_program(self, &program, &[], budget, bound)
        })
    }

    /// Runs one evaluation, counted as `mil.evals` and timed into
    /// `mil.eval_ns`.
    fn evaluate(&self, run: impl FnOnce() -> Result<MilValue>) -> Result<MilValue> {
        self.metrics.mil_evals.inc();
        let start = std::time::Instant::now();
        let out = run();
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
    use crate::bat::ColumnData;
    use crate::value::AtomType;

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
        assert_eq!(k.bat("x").unwrap().read().recover().len(), 1);
    }

    #[test]
    fn a_group_is_rebound_and_fetched_together() {
        let k = Kernel::new();
        let ints = |v: Vec<i64>| Bat::from_tail_data(ColumnData::Int(v));
        k.set_bats([("a", ints(vec![1])), ("b", ints(vec![2]))]);
        let [a, b, c] = k.bats(["a", "b", "c"]);
        assert!(c.is_none());
        let (a, b) = (a.unwrap(), b.unwrap());

        // A holder keeps its version; the map holds the new one.
        k.set_bats([("a", ints(vec![3, 4])), ("b", ints(vec![5, 6]))]);
        assert_eq!(a.read().recover().len() + b.read().recover().len(), 2);
        assert_eq!(k.bat("b").unwrap().read().recover().len(), 2);

        // MIL reads bound names as the handles given, others by lookup.
        let program = r#"RETURN bat("a").count + bat("b").count;"#;
        let bound = k
            .eval_mil_bound(program, &ExecBudget::unlimited(), &[("a", &a)])
            .unwrap();
        assert_eq!(bound, MilValue::Atom(Atom::Int(3)));
        assert_eq!(k.eval_mil(program).unwrap(), MilValue::Atom(Atom::Int(4)));
    }

    #[test]
    fn only_unshared_bats_are_updated_in_place() {
        let k = Kernel::new();
        k.set_bats(["a", "b"].map(|name| (name, Bat::from_tail_data(ColumnData::Int(vec![1])))));
        let grow = |[a, b]: [&mut Bat; 2]| {
            a.extend_ints([7]).unwrap();
            b.extend_ints([8]).unwrap();
        };
        assert!(k.update_unshared(["a", "b"], grow).is_some());
        assert_eq!(k.bat("a").unwrap().read().recover().len(), 2);
        // Unbound, named twice, or held by a reader: nothing runs.
        assert!(k.update_unshared(["a", "c"], |_| ()).is_none());
        assert!(k.update_unshared(["a", "a"], |_| ()).is_none());
        let held = k.bat("b").unwrap();
        assert!(k.update_unshared(["a", "b"], grow).is_none());
        drop(held);
        assert!(k.update_unshared(["a", "b"], grow).is_some());
        assert_eq!(
            k.bat("b").unwrap().read().recover().tail().ints(),
            Some(&[1, 8, 8][..])
        );
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
                    bat.write().recover().append_void(Atom::Int(i)).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(k.bat("shared").unwrap().read().recover().len(), 4);
    }

    /// Selections by catalog name against one kernel, counting how each
    /// found its rows: (cache hits, builds).
    fn index_uses(k: &Kernel) -> (u64, u64) {
        (k.metrics.index_hits.get(), k.metrics.index_misses.get())
    }

    fn ints(values: &[i64]) -> Bat {
        Bat::from_tail_data(ColumnData::Int(values.to_vec()))
    }

    #[test]
    fn value_index_is_cached_per_name_and_version() {
        let k = Kernel::new();
        k.set_bat("x", ints(&[7, 1, 7]));
        let select = r#"RETURN bat("x").select(7).count;"#;
        assert_eq!(k.eval_mil(select).unwrap(), MilValue::Atom(Atom::Int(2)));
        assert_eq!(index_uses(&k), (0, 1));
        assert_eq!(k.eval_mil(select).unwrap(), MilValue::Atom(Atom::Int(2)));
        assert_eq!(index_uses(&k), (1, 1));
        assert_eq!(k.cached_indexes(), 1);

        // Growing the BAT in place extends its index; the next
        // selection is a hit and sees the new row.
        k.update_unshared(["x"], |[x]| x.extend_ints([7]))
            .unwrap()
            .unwrap();
        assert_eq!(k.cached_indexes(), 1);
        assert_eq!(k.eval_mil(select).unwrap(), MilValue::Atom(Atom::Int(3)));
        assert_eq!(index_uses(&k), (2, 1));

        // Changing a row in place releases it; the next selection
        // rebuilds and sees the change.
        k.update_unshared(["x"], |[x]| x.replace(Atom::Oid(1), Atom::Int(7)))
            .unwrap()
            .unwrap();
        assert_eq!(k.cached_indexes(), 0);
        assert_eq!(k.eval_mil(select).unwrap(), MilValue::Atom(Atom::Int(4)));
        assert_eq!(index_uses(&k), (2, 2));
    }

    #[test]
    fn rebinding_a_name_releases_its_index() {
        let k = Kernel::new();
        let select = r#"RETURN bat("x").select(1).count;"#;
        k.set_bat("x", ints(&[1]));
        k.eval_mil(select).unwrap();
        k.set_bats([("x", ints(&[1, 1]))]);
        assert_eq!(k.cached_indexes(), 0);
        assert_eq!(k.eval_mil(select).unwrap(), MilValue::Atom(Atom::Int(2)));
        k.set_bat("x", ints(&[2]));
        assert_eq!(k.cached_indexes(), 0);
        k.eval_mil(select).unwrap();
        k.drop_bat("x").unwrap();
        assert_eq!(k.cached_indexes(), 0);
        assert_eq!(k.metrics.index_evictions.get(), 3);
    }

    #[test]
    fn a_superseded_binding_builds_without_caching() {
        let k = Kernel::new();
        k.set_bat("x", ints(&[5, 5]));
        let old = k.bat("x").unwrap();
        k.set_bat("x", ints(&[5]));
        let select = r#"RETURN bat("x").select(5).count;"#;
        let bound = k
            .eval_mil_bound(select, &ExecBudget::unlimited(), &[("x", &old)])
            .unwrap();
        assert_eq!(bound, MilValue::Atom(Atom::Int(2)));
        assert_eq!((index_uses(&k), k.cached_indexes()), ((0, 1), 0));
        // The current binding's index is the one kept.
        assert_eq!(k.eval_mil(select).unwrap(), MilValue::Atom(Atom::Int(1)));
        assert_eq!(k.cached_indexes(), 1);
    }

    #[test]
    fn temporaries_void_tails_and_ranges_scan() {
        let k = Kernel::new();
        k.set_bat("x", ints(&[3, 4, 3]));
        k.set_bat("oids", ints(&[3, 4, 3]).reverse());
        for program in [
            r#"RETURN (bat("x").mirror).select(0).count;"#,
            r#"RETURN bat("x").select(3, 4).count;"#,
            r#"RETURN bat("oids").select(bat("oids").max).count;"#,
        ] {
            k.eval_mil(program).unwrap();
        }
        assert_eq!((index_uses(&k), k.cached_indexes()), ((0, 0), 0));
    }
}
