//! A MIL (Monet Interface Language) interpreter.
//!
//! The Cobra system compiles Moa object-algebra plans into MIL programs
//! that the Monet kernel executes (paper §3, Fig. 4 and Fig. 5b). This
//! module implements the subset of MIL those programs need:
//!
//! * `VAR x := expr;` declarations and `x := expr;` assignments,
//! * `PROC name(params) : type := { … }` procedure definitions,
//! * BAT method calls (`b.insert(h,t)`, `b.reverse`, `b.find(k)`, …),
//! * builtin functions (`new(void,int)`, `bat("name")`, `count`, …),
//! * extension-module procedure calls resolved through the kernel,
//! * `threadcnt(n)` plus `PARALLEL { … }` blocks that evaluate their
//!   statements on concurrent threads — the construct behind the paper's
//!   parallel evaluation of six HMM servers,
//! * `WHILE (cond) { … }` loops, `IF (cond) { … } ELSE { … }`
//!   conditionals and `true`/`false` literals,
//! * `RETURN expr;` and `#`-comments,
//! * `$k` parameters: [`Kernel::prepare`] parses a program once, and
//!   [`Kernel::eval_prepared`] evaluates it with `$k` read as the `k`-th
//!   atom it is given, so a value a caller supplies is data, never
//!   program text.
//!
//! Because `WHILE` and recursive `PROC`s make nontermination expressible,
//! evaluation can be bounded by an [`ExecBudget`](crate::guard::ExecBudget)
//! (step fuel, wall-clock deadline, cancellation token) through
//! [`Kernel::eval_mil_guarded`]; see [`crate::guard`]. The unguarded
//! entry points run with an unlimited budget.
//!
//! ```
//! use f1_monet::prelude::*;
//! let k = Kernel::new();
//! let v = k.eval_mil(r#"
//!     VAR b := new(void, dbl);
//!     b.insert(1.5); b.insert(2.5); b.insert(0.5);
//!     RETURN b.max;
//! "#).unwrap();
//! assert_eq!(v, MilValue::Atom(Atom::Dbl(2.5)));
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use cobra_faults::Recover;

use crate::bat::Bat;
use crate::error::{MonetError, Result};
use crate::guard::{ExecBudget, ExecGuard};
use crate::kernel::{BatHandle, Kernel};
use crate::ops::{self, Aggregate};
use crate::parallel;
use crate::value::{Atom, AtomType};

mod parse;

use parse::{BinOp, Expr, ProcDef, Stmt};

/// Maximum nesting of user-`PROC` calls: recursion beyond this fails
/// with an eval error instead of overflowing the interpreter stack.
const MAX_CALL_DEPTH: usize = 128;

/// A value produced by MIL evaluation.
#[derive(Clone)]
pub enum MilValue {
    /// Absence of a value (e.g. an expression statement's result).
    Nil,
    /// A scalar atom.
    Atom(Atom),
    /// A (shared, mutable) BAT.
    Bat(BatHandle),
}

impl MilValue {
    /// Wraps a fresh BAT in a handle.
    pub fn new_bat(bat: Bat) -> Self {
        MilValue::Bat(Arc::new(RwLock::new(bat)))
    }

    /// Extracts the atom, failing on Nil/Bat.
    pub fn as_atom(&self) -> Result<Atom> {
        match self {
            MilValue::Atom(a) => Ok(a.clone()),
            other => Err(MonetError::Eval(format!("expected atom, found {other}"))),
        }
    }

    /// Extracts the BAT handle, failing on Nil/Atom.
    pub fn as_bat(&self) -> Result<BatHandle> {
        match self {
            MilValue::Bat(b) => Ok(Arc::clone(b)),
            other => Err(MonetError::Eval(format!("expected BAT, found {other}"))),
        }
    }

    /// Clones the underlying BAT out of the handle.
    pub fn bat_snapshot(&self) -> Result<Bat> {
        Ok(self.as_bat()?.read().recover().clone())
    }
}

impl fmt::Debug for MilValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MilValue::Nil => write!(f, "Nil"),
            MilValue::Atom(a) => write!(f, "Atom({a})"),
            MilValue::Bat(b) => write!(f, "Bat(len={})", b.read().recover().len()),
        }
    }
}

impl fmt::Display for MilValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MilValue::Nil => write!(f, "nil"),
            MilValue::Atom(a) => write!(f, "{a}"),
            MilValue::Bat(b) => {
                let bat = b.read().recover();
                write!(
                    f,
                    "[{} pairs of {}|{}]",
                    bat.len(),
                    bat.types().0,
                    bat.types().1
                )
            }
        }
    }
}

impl PartialEq for MilValue {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (MilValue::Nil, MilValue::Nil) => true,
            (MilValue::Atom(a), MilValue::Atom(b)) => a == b,
            (MilValue::Bat(a), MilValue::Bat(b)) => {
                Arc::ptr_eq(a, b) || *a.read().recover() == *b.read().recover()
            }
            _ => false,
        }
    }
}

/// A parsed MIL program ([`Kernel::prepare`]): evaluated any number of
/// times, with any parameters, and lexed and parsed only once.
#[derive(Debug)]
pub struct Prepared {
    procs: HashMap<String, ProcDef>,
    stmts: Vec<Stmt>,
}

impl Prepared {
    /// Lexes and parses `source`.
    pub(crate) fn parse(source: &str) -> Result<Prepared> {
        let (procs, stmts) = parse::parse(source)?;
        Ok(Prepared { procs, stmts })
    }
}

// ---------------------------------------------------------------------------
// Evaluator
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct Env<'k> {
    kernel: &'k Kernel,
    /// Names `bat(name)` reads as the handle given with them.
    bound: &'k [(&'k str, &'k BatHandle)],
    /// What `$k` reads.
    params: &'k [Atom],
    vars: HashMap<String, MilValue>,
    procs: &'k HashMap<String, ProcDef>,
    threads: Arc<AtomicUsize>,
    /// Shared across PARALLEL threads and procedure frames so the budget
    /// bounds the whole program.
    guard: Arc<ExecGuard>,
    /// Current user-PROC nesting, capped at [`MAX_CALL_DEPTH`].
    depth: usize,
}

impl<'k> Env<'k> {
    fn lookup(&self, name: &str) -> Result<MilValue> {
        self.vars
            .get(name)
            .cloned()
            .ok_or_else(|| MonetError::Eval(format!("undefined variable '{name}'")))
    }
}

enum Flow {
    Normal,
    Return(MilValue),
}

/// Evaluates `program` under `budget` with `$k` read as `params[k]`,
/// returning the value of the first executed top-level `RETURN` (or
/// [`MilValue::Nil`]); a tripped limit is [`MonetError::BudgetExhausted`],
/// [`MonetError::Deadline`] or [`MonetError::Interrupted`]. `bat(name)`
/// reads a name of `bound` as the handle given with it, any other
/// through the kernel's name map.
pub(crate) fn eval_program(
    kernel: &Kernel,
    program: &Prepared,
    params: &[Atom],
    budget: &ExecBudget,
    bound: &[(&str, &BatHandle)],
) -> Result<MilValue> {
    let mut env = Env {
        kernel,
        bound,
        params,
        vars: HashMap::new(),
        procs: &program.procs,
        threads: Arc::new(AtomicUsize::new(1)),
        guard: Arc::new(budget.start()),
        depth: 0,
    };
    let out = exec_stmts(&mut env, &program.stmts);
    let metrics = kernel.metrics();
    metrics.mil_ticks.add(env.guard.ticks());
    metrics.mil_fuel_used.add(env.guard.fuel_used());
    match out? {
        Flow::Return(v) => Ok(v),
        Flow::Normal => Ok(MilValue::Nil),
    }
}

fn exec_stmts(env: &mut Env<'_>, stmts: &[Stmt]) -> Result<Flow> {
    for stmt in stmts {
        match exec_stmt(env, stmt)? {
            Flow::Normal => {}
            ret @ Flow::Return(_) => return Ok(ret),
        }
    }
    Ok(Flow::Normal)
}

fn exec_stmt(env: &mut Env<'_>, stmt: &Stmt) -> Result<Flow> {
    env.guard.tick()?;
    match stmt {
        Stmt::Var { name, expr } => {
            let v = eval_expr(env, expr)?;
            env.vars.insert(name.clone(), v);
            Ok(Flow::Normal)
        }
        Stmt::Assign { name, expr } => {
            if !env.vars.contains_key(name) {
                return Err(MonetError::Eval(format!(
                    "assignment to undeclared variable '{name}' (use VAR)"
                )));
            }
            let v = eval_expr(env, expr)?;
            env.vars.insert(name.clone(), v);
            Ok(Flow::Normal)
        }
        Stmt::Expr(expr) => {
            eval_expr(env, expr)?;
            Ok(Flow::Normal)
        }
        Stmt::Return(expr) => {
            let v = eval_expr(env, expr)?;
            Ok(Flow::Return(v))
        }
        Stmt::Parallel(body) => exec_parallel(env, body),
        Stmt::While { cond, body } => {
            loop {
                // The back-edge tick makes even `WHILE (true) { }` (an
                // empty body charges nothing) consume fuel every pass.
                env.guard.tick()?;
                if !eval_cond(env, cond)? {
                    break;
                }
                match exec_stmts(env, body)? {
                    Flow::Normal => {}
                    ret @ Flow::Return(_) => return Ok(ret),
                }
            }
            Ok(Flow::Normal)
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            if eval_cond(env, cond)? {
                exec_stmts(env, then_body)
            } else {
                exec_stmts(env, else_body)
            }
        }
    }
}

/// Evaluates a `WHILE`/`IF` condition, which must produce a bit.
fn eval_cond(env: &mut Env<'_>, cond: &Expr) -> Result<bool> {
    match eval_expr(env, cond)?.as_atom()? {
        Atom::Bit(b) => Ok(b),
        other => Err(MonetError::TypeMismatch {
            expected: "bit condition".into(),
            found: other.to_string(),
        }),
    }
}

/// Executes the statements of a `PARALLEL { … }` block concurrently.
///
/// Each statement gets a snapshot of the environment (BAT handles are
/// shared, so inserts into a common BAT — as in the paper's `parEval` —
/// are visible to all). New variable bindings merge back in statement
/// order; a `RETURN` inside a parallel block returns after the whole
/// block completes, earliest statement winning.
fn exec_parallel(env: &mut Env<'_>, body: &[Stmt]) -> Result<Flow> {
    let threads = env.threads.load(Ordering::Relaxed).max(1);
    env.kernel.metrics().parallel_blocks.inc();
    env.kernel.metrics().threads.set(threads as i64);
    type JobOut = Result<(HashMap<String, MilValue>, Option<MilValue>)>;
    let jobs: Vec<Box<dyn FnOnce() -> JobOut + Send + '_>> = body
        .iter()
        .map(|stmt| {
            let mut local = env.clone();
            let stmt = stmt.clone();
            Box::new(move || -> JobOut {
                let flow = exec_stmt(&mut local, &stmt)?;
                let ret = match flow {
                    Flow::Return(v) => Some(v),
                    Flow::Normal => None,
                };
                Ok((local.vars, ret))
            }) as Box<dyn FnOnce() -> JobOut + Send>
        })
        .collect();
    let outcomes = parallel::run_jobs(threads, jobs)?;
    let mut ret: Option<MilValue> = None;
    for outcome in outcomes {
        let (vars, r) = outcome?;
        for (k, v) in vars {
            env.vars.insert(k, v);
        }
        if ret.is_none() {
            ret = r;
        }
    }
    match ret {
        Some(v) => Ok(Flow::Return(v)),
        None => Ok(Flow::Normal),
    }
}

fn eval_expr(env: &mut Env<'_>, expr: &Expr) -> Result<MilValue> {
    match expr {
        Expr::Int(v) => Ok(MilValue::Atom(Atom::Int(*v))),
        Expr::Dbl(v) => Ok(MilValue::Atom(Atom::Dbl(*v))),
        Expr::Str(s) => Ok(MilValue::Atom(Atom::str(s))),
        Expr::Bit(b) => Ok(MilValue::Atom(Atom::Bit(*b))),
        Expr::Param(k) => param(env, *k).map(MilValue::Atom),
        Expr::Ident(name) => env.lookup(name),
        Expr::Neg(inner) => {
            let v = eval_expr(env, inner)?.as_atom()?;
            match v {
                Atom::Int(i) => Ok(MilValue::Atom(Atom::Int(i.wrapping_neg()))),
                Atom::Dbl(d) => Ok(MilValue::Atom(Atom::Dbl(-d))),
                other => Err(MonetError::Eval(format!("cannot negate {other}"))),
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            let l = eval_expr(env, lhs)?.as_atom()?;
            let r = eval_expr(env, rhs)?.as_atom()?;
            eval_binop(op, &l, &r).map(MilValue::Atom)
        }
        Expr::Call { name, args } => eval_call(env, name, args),
        Expr::Method { recv, name, args } => {
            // A receiver read by catalog name, `bat(n).method(…)`, keeps
            // its name: a selection on it probes the kernel's value index.
            let (recv, catalog) = match &**recv {
                Expr::Call {
                    name: call,
                    args: by,
                } if call == "bat" && by.len() == 1 => {
                    let name = eval_expr(env, &by[0])?.as_atom()?;
                    (MilValue::Bat(catalog_bat(env, name.as_str()?)?), Some(name))
                }
                recv => (eval_expr(env, recv)?, None),
            };
            let mut argv = Vec::with_capacity(args.len());
            for a in args {
                argv.push(eval_expr(env, a)?);
            }
            let catalog = catalog.as_ref().map(Atom::as_str).transpose()?;
            eval_method(env, &recv, catalog, name, &argv)
        }
    }
}

/// The atom `$k` reads.
fn param(env: &Env<'_>, k: usize) -> Result<Atom> {
    env.params.get(k).cloned().ok_or_else(|| {
        MonetError::Eval(format!(
            "unbound parameter ${k} ({} given)",
            env.params.len()
        ))
    })
}

fn eval_binop(op: &BinOp, l: &Atom, r: &Atom) -> Result<Atom> {
    use BinOp::*;
    match op {
        Eq => return Ok(Atom::Bit(l == r)),
        Ne => return Ok(Atom::Bit(l != r)),
        Lt => return Ok(Atom::Bit(l < r)),
        Gt => return Ok(Atom::Bit(l > r)),
        Le => return Ok(Atom::Bit(l <= r)),
        Ge => return Ok(Atom::Bit(l >= r)),
        _ => {}
    }
    // String concatenation with '+'.
    if let (Atom::Str(a), Atom::Str(b)) = (l, r) {
        if *op == Add {
            return Ok(Atom::str(format!("{a}{b}")));
        }
    }
    // Integer arithmetic stays integral; anything else widens to dbl.
    if let (Atom::Int(a), Atom::Int(b)) = (l, r) {
        return Ok(match op {
            Add => Atom::Int(a.wrapping_add(*b)),
            Sub => Atom::Int(a.wrapping_sub(*b)),
            Mul => Atom::Int(a.wrapping_mul(*b)),
            Div => {
                if *b == 0 {
                    return Err(MonetError::Eval("integer division by zero".into()));
                }
                Atom::Int(a.wrapping_div(*b))
            }
            _ => unreachable!(),
        });
    }
    let a = l.as_dbl()?;
    let b = r.as_dbl()?;
    Ok(Atom::Dbl(match op {
        Add => a + b,
        Sub => a - b,
        Mul => a * b,
        Div => a / b,
        _ => unreachable!(),
    }))
}

fn eval_call(env: &mut Env<'_>, name: &str, args: &[Expr]) -> Result<MilValue> {
    // `new(headtype, tailtype)` reads its arguments as type names.
    if name == "new" {
        if args.len() != 2 {
            return Err(MonetError::Eval("new(headtype, tailtype)".into()));
        }
        let ty = |e: &Expr| -> Result<AtomType> {
            match e {
                Expr::Ident(n) => AtomType::parse(n),
                Expr::Str(s) => AtomType::parse(s),
                // A parameter names a type the way its string would.
                Expr::Param(k) => match param(env, *k)? {
                    Atom::Str(s) => AtomType::parse(&s),
                    other => Err(MonetError::Eval(format!(
                        "new() expects type names, found {other}"
                    ))),
                },
                other => Err(MonetError::Eval(format!(
                    "new() expects type names, found {other:?}"
                ))),
            }
        };
        let head = ty(&args[0])?;
        let tail = ty(&args[1])?;
        return Ok(MilValue::new_bat(Bat::new(head, tail)));
    }

    let mut argv = Vec::with_capacity(args.len());
    for a in args {
        argv.push(eval_expr(env, a)?);
    }

    match name {
        "bat" => {
            let name = argv
                .first()
                .ok_or_else(|| MonetError::Eval("bat(name)".into()))?
                .as_atom()?;
            Ok(MilValue::Bat(catalog_bat(env, name.as_str()?)?))
        }
        "register" => {
            let bname = argv
                .first()
                .ok_or_else(|| MonetError::Eval("register(name, bat)".into()))?
                .as_atom()?;
            let bat = argv
                .get(1)
                .ok_or_else(|| MonetError::Eval("register(name, bat)".into()))?
                .bat_snapshot()?;
            Ok(MilValue::Bat(env.kernel.set_bat(bname.as_str()?, bat)))
        }
        "unregister" => {
            let bname = argv
                .first()
                .ok_or_else(|| MonetError::Eval("unregister(name)".into()))?
                .as_atom()?;
            env.kernel.drop_bat(bname.as_str()?)?;
            Ok(MilValue::Nil)
        }
        "count" => {
            let b = argv
                .first()
                .ok_or_else(|| MonetError::Eval("count(bat)".into()))?
                .as_bat()?;
            let n = b.read().recover().len();
            Ok(MilValue::Atom(Atom::Int(n as i64)))
        }
        "threadcnt" => {
            let n = argv
                .first()
                .ok_or_else(|| MonetError::Eval("threadcnt(n)".into()))?
                .as_atom()?
                .as_int()?;
            if n < 1 {
                return Err(MonetError::Eval("threadcnt requires n >= 1".into()));
            }
            env.threads.store(n as usize, Ordering::Relaxed);
            Ok(MilValue::Atom(Atom::Int(n)))
        }
        "print" => {
            // Deterministic, side-effect-free print: formats its argument.
            let text = argv
                .first()
                .map(|v| v.to_string())
                .unwrap_or_else(|| "nil".into());
            Ok(MilValue::Atom(Atom::str(text)))
        }
        "int" => {
            let a = argv
                .first()
                .ok_or_else(|| MonetError::Eval("int(x)".into()))?
                .as_atom()?;
            let v = match a {
                Atom::Int(v) => v,
                Atom::Dbl(v) => v as i64,
                Atom::Bit(b) => b as i64,
                Atom::Str(s) => s
                    .trim()
                    .parse()
                    .map_err(|_| MonetError::Eval(format!("cannot parse '{s}' as int")))?,
                Atom::Oid(o) => o as i64,
            };
            Ok(MilValue::Atom(Atom::Int(v)))
        }
        "dbl" => {
            let a = argv
                .first()
                .ok_or_else(|| MonetError::Eval("dbl(x)".into()))?
                .as_atom()?;
            let v = match a {
                Atom::Dbl(v) => v,
                Atom::Int(v) => v as f64,
                Atom::Str(s) => s
                    .trim()
                    .parse()
                    .map_err(|_| MonetError::Eval(format!("cannot parse '{s}' as dbl")))?,
                other => return Err(MonetError::Eval(format!("cannot convert {other} to dbl"))),
            };
            Ok(MilValue::Atom(Atom::Dbl(v)))
        }
        "str" => {
            let a = argv
                .first()
                .ok_or_else(|| MonetError::Eval("str(x)".into()))?
                .as_atom()?;
            let v = match a {
                Atom::Str(s) => s.to_string(),
                other => other.to_string(),
            };
            Ok(MilValue::Atom(Atom::str(v)))
        }
        "sqrt" | "abs" | "ln" | "exp" | "floor" => {
            let v = argv
                .first()
                .ok_or_else(|| MonetError::Eval(format!("{name}(x)")))?
                .as_atom()?
                .as_dbl()?;
            let out = match name {
                "sqrt" => v.sqrt(),
                "abs" => v.abs(),
                "ln" => v.ln(),
                "exp" => v.exp(),
                "floor" => v.floor(),
                _ => unreachable!(),
            };
            Ok(MilValue::Atom(Atom::Dbl(out)))
        }
        "error" => {
            let msg = argv
                .first()
                .map(|v| v.to_string())
                .unwrap_or_else(|| "error()".into());
            Err(MonetError::Eval(msg))
        }
        _ => {
            // User-defined PROC?
            let procs = env.procs;
            if let Some(def) = procs.get(name) {
                env.guard.tick()?;
                if def.params.len() != argv.len() {
                    return Err(MonetError::Eval(format!(
                        "procedure '{name}' expects {} arguments, got {}",
                        def.params.len(),
                        argv.len()
                    )));
                }
                if env.depth + 1 > MAX_CALL_DEPTH {
                    return Err(MonetError::Eval(format!(
                        "procedure call depth exceeded {MAX_CALL_DEPTH} (runaway recursion in '{name}'?)"
                    )));
                }
                let mut callee = Env {
                    kernel: env.kernel,
                    bound: env.bound,
                    params: env.params,
                    vars: def.params.iter().cloned().zip(argv).collect(),
                    procs: env.procs,
                    threads: Arc::clone(&env.threads),
                    guard: Arc::clone(&env.guard),
                    depth: env.depth + 1,
                };
                return match exec_stmts(&mut callee, &def.body)? {
                    Flow::Return(v) => Ok(v),
                    Flow::Normal => Ok(MilValue::Nil),
                };
            }
            // Extension-module procedure?
            env.guard.tick()?;
            env.kernel.call_proc(name, &argv)
        }
    }
}

/// The BAT `bat(name)` reads: the handle bound to `name`, else the
/// catalog's.
fn catalog_bat(env: &Env<'_>, name: &str) -> Result<BatHandle> {
    match env.bound.iter().find(|(bound, _)| *bound == name) {
        Some((_, handle)) => Ok(Arc::clone(handle)),
        None => env.kernel.bat(name),
    }
}

/// The operator context for the current MIL evaluation: `threadcnt(n)`
/// workers and the program's execution guard, so vectorized operators
/// morselize across threads and honour the budget inside long scans.
fn op_ctx<'e>(env: &'e Env<'_>) -> ops::OpCtx<'e> {
    ops::OpCtx {
        threads: env.threads.load(Ordering::Relaxed).max(1),
        guard: Some(env.guard.as_ref()),
        metrics: Some(env.kernel.metrics().as_ref()),
    }
}

/// The BAT methods [`eval_method_op`] dispatches, in its order: the
/// opcodes whose metric series the kernel resolves once.
pub(crate) const BAT_METHODS: [&str; 19] = [
    "insert",
    "replace",
    "reverse",
    "mirror",
    "mark",
    "count",
    "max",
    "min",
    "sum",
    "avg",
    "find",
    "select",
    "slice",
    "join",
    "semijoin",
    "diff",
    "unique",
    "histogram",
    "sort",
];

/// Runs BAT method `name` on `recv`, which the program read by the
/// catalog name `catalog` when it has one.
fn eval_method(
    env: &Env<'_>,
    recv: &MilValue,
    catalog: Option<&str>,
    name: &str,
    args: &[MilValue],
) -> Result<MilValue> {
    env.guard.tick()?;
    // Fault site `bat.{method}`: only pay the format when a plan is armed.
    if env.kernel.faults().is_armed() {
        if let Err(fault) = env.kernel.faults().fire(&format!("bat.{name}")) {
            env.kernel.metrics().record_failure(&format!("bat.{name}"));
            return Err(fault.into());
        }
    }
    // The receiver's row count is the dominant input size of every BAT
    // method; recorded alongside the wall time it gives the plan coster
    // a measured ns-per-row figure per opcode.
    let rows = recv
        .as_bat()
        .ok()
        .map_or(0, |handle| handle.read().recover().len() as u64);
    let start = std::time::Instant::now();
    let out = eval_method_op(env, recv, catalog, name, args);
    env.kernel
        .metrics()
        .record_op_sized(name, start.elapsed().as_nanos() as u64, rows);
    out
}

/// The BAT-method dispatch proper, separated from [`eval_method`] so the
/// wrapper can time every opcode uniformly.
fn eval_method_op(
    env: &Env<'_>,
    recv: &MilValue,
    catalog: Option<&str>,
    name: &str,
    args: &[MilValue],
) -> Result<MilValue> {
    let handle = recv
        .as_bat()
        .map_err(|_| MonetError::Eval(format!("method '.{name}' requires a BAT receiver")))?;
    match name {
        "insert" => {
            let mut bat = handle.write().recover();
            match args.len() {
                1 => bat.append_void(args[0].as_atom()?)?,
                2 => bat.append(args[0].as_atom()?, args[1].as_atom()?)?,
                n => {
                    return Err(MonetError::Eval(format!(
                        "insert takes 1 or 2 arguments, got {n}"
                    )))
                }
            }
            drop(bat);
            Ok(MilValue::Bat(handle))
        }
        "replace" => {
            if args.len() != 2 {
                return Err(MonetError::Eval("replace(key, value)".into()));
            }
            handle
                .write()
                .recover()
                .replace(args[0].as_atom()?, args[1].as_atom()?)?;
            Ok(MilValue::Bat(handle))
        }
        "reverse" => Ok(MilValue::new_bat(handle.read().recover().reverse())),
        "mirror" => Ok(MilValue::new_bat(handle.read().recover().mirror())),
        "mark" => {
            let base = match args.first() {
                Some(v) => {
                    let a = v.as_atom()?;
                    match a {
                        Atom::Oid(o) => o,
                        Atom::Int(i) if i >= 0 => i as u64,
                        other => {
                            return Err(MonetError::Eval(format!(
                                "mark expects a non-negative base, got {other}"
                            )))
                        }
                    }
                }
                None => 0,
            };
            Ok(MilValue::new_bat(handle.read().recover().mark(base)))
        }
        "count" => Ok(MilValue::Atom(Atom::Int(
            handle.read().recover().len() as i64
        ))),
        "max" | "min" | "sum" | "avg" => {
            let kind = match name {
                "max" => Aggregate::Max,
                "min" => Aggregate::Min,
                "sum" => Aggregate::Sum,
                _ => Aggregate::Avg,
            };
            Ok(MilValue::Atom(ops::aggregate(
                &handle.read().recover(),
                kind,
            )?))
        }
        "find" => {
            let key = args
                .first()
                .ok_or_else(|| MonetError::Eval("find(key)".into()))?
                .as_atom()?;
            match handle.read().recover().find(&key) {
                Some(v) => Ok(MilValue::Atom(v)),
                None => Err(MonetError::NotFound(format!("key {key} in BAT"))),
            }
        }
        "select" => match args.len() {
            1 => {
                let v = args[0].as_atom()?;
                let out = env.kernel.select_eq(catalog, &handle, &v, &op_ctx(env))?;
                Ok(MilValue::new_bat(out))
            }
            2 => Ok(MilValue::new_bat(ops::select_range(
                &handle.read().recover(),
                &args[0].as_atom()?,
                &args[1].as_atom()?,
                &op_ctx(env),
            )?)),
            n => Err(MonetError::Eval(format!(
                "select takes 1 or 2 arguments, got {n}"
            ))),
        },
        "slice" => {
            if args.len() != 2 {
                return Err(MonetError::Eval("slice(lo, hi)".into()));
            }
            let lo = args[0].as_atom()?.as_int()?.max(0) as usize;
            let hi = args[1].as_atom()?.as_int()?.max(0) as usize;
            Ok(MilValue::new_bat(handle.read().recover().slice(lo, hi)))
        }
        "join" => {
            let other = args
                .first()
                .ok_or_else(|| MonetError::Eval("join(bat)".into()))?
                .as_bat()?;
            let l = handle.read().recover();
            let r = other.read().recover();
            Ok(MilValue::new_bat(ops::join(&l, &r, &op_ctx(env))?))
        }
        "semijoin" => {
            let other = args
                .first()
                .ok_or_else(|| MonetError::Eval("semijoin(bat)".into()))?
                .as_bat()?;
            let l = handle.read().recover();
            let r = other.read().recover();
            let out = ops::semijoin(&l, &r, &op_ctx(env))?;
            drop((l, r));
            Ok(MilValue::new_bat(out))
        }
        "diff" => {
            let other = args
                .first()
                .ok_or_else(|| MonetError::Eval("diff(bat)".into()))?
                .as_bat()?;
            let l = handle.read().recover();
            let r = other.read().recover();
            let out = ops::antijoin(&l, &r, &op_ctx(env))?;
            drop((l, r));
            Ok(MilValue::new_bat(out))
        }
        "unique" => Ok(MilValue::new_bat(ops::unique_tail(
            &handle.read().recover(),
        ))),
        "histogram" => Ok(MilValue::new_bat(ops::histogram(&handle.read().recover()))),
        "sort" => Ok(MilValue::new_bat(ops::sort_by_tail(
            &handle.read().recover(),
        ))),
        other => Err(MonetError::Eval(format!("unknown BAT method '.{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel() -> Kernel {
        Kernel::new()
    }

    #[test]
    fn literals_and_arithmetic() {
        let k = kernel();
        assert_eq!(
            k.eval_mil("RETURN 2 + 3 * 4;").unwrap(),
            MilValue::Atom(Atom::Int(14))
        );
        assert_eq!(
            k.eval_mil("RETURN (2 + 3) * 4;").unwrap(),
            MilValue::Atom(Atom::Int(20))
        );
        assert_eq!(
            k.eval_mil("RETURN 1.5 + 1;").unwrap(),
            MilValue::Atom(Atom::Dbl(2.5))
        );
        assert_eq!(
            k.eval_mil("RETURN -3 + 1;").unwrap(),
            MilValue::Atom(Atom::Int(-2))
        );
        assert_eq!(
            k.eval_mil(r#"RETURN "pit" + "stop";"#).unwrap(),
            MilValue::Atom(Atom::str("pitstop"))
        );
    }

    #[test]
    fn comparison_operators() {
        let k = kernel();
        assert_eq!(
            k.eval_mil("RETURN 2 < 3;").unwrap(),
            MilValue::Atom(Atom::Bit(true))
        );
        assert_eq!(
            k.eval_mil("RETURN 2 == 2.0;").unwrap(),
            MilValue::Atom(Atom::Bit(true))
        );
        assert_eq!(
            k.eval_mil("RETURN 2 != 2;").unwrap(),
            MilValue::Atom(Atom::Bit(false))
        );
    }

    #[test]
    fn division_by_zero_is_an_error() {
        assert!(kernel().eval_mil("RETURN 1 / 0;").is_err());
    }

    #[test]
    fn variables_and_assignment() {
        let k = kernel();
        let v = k.eval_mil("VAR x := 10; x := x + 5; RETURN x;").unwrap();
        assert_eq!(v, MilValue::Atom(Atom::Int(15)));
        assert!(k.eval_mil("y := 1;").is_err());
    }

    #[test]
    fn scientific_notation_and_comments() {
        let k = kernel();
        let v = k
            .eval_mil("# threshold from the paper\nVAR t := 2.2e-3; RETURN t * 1000;")
            .unwrap();
        assert_eq!(v, MilValue::Atom(Atom::Dbl(2.2)));
    }

    #[test]
    fn bat_lifecycle_new_insert_aggregate() {
        let k = kernel();
        let v = k
            .eval_mil(
                r#"
                VAR b := new(void, dbl);
                b.insert(1.0); b.insert(3.0); b.insert(2.0);
                RETURN b.avg;
                "#,
            )
            .unwrap();
        assert_eq!(v, MilValue::Atom(Atom::Dbl(2.0)));
    }

    #[test]
    fn paper_fig4_pattern_max_then_reverse_find() {
        // The tail of Fig. 4: find the model name with the best score.
        let k = kernel();
        let v = k
            .eval_mil(
                r#"
                VAR parEval := new(str, dbl);
                parEval.insert("Service", 0.21);
                parEval.insert("Forehand", 0.55);
                parEval.insert("Smash", 0.34);
                VAR najmanji := parEval.max;
                VAR ret := (parEval.reverse).find(najmanji);
                RETURN ret;
                "#,
            )
            .unwrap();
        assert_eq!(v, MilValue::Atom(Atom::str("Forehand")));
    }

    #[test]
    fn kernel_bats_via_bat_and_register() {
        let k = kernel();
        k.set_bat(
            "speeds",
            Bat::from_tail(AtomType::Dbl, [Atom::Dbl(312.0), Atom::Dbl(318.5)]).unwrap(),
        );
        let v = k.eval_mil(r#"RETURN bat("speeds").max;"#).unwrap();
        assert_eq!(v, MilValue::Atom(Atom::Dbl(318.5)));

        k.eval_mil(
            r#"
            VAR c := new(void, int);
            c.insert(7);
            register("copy", c);
            "#,
        )
        .unwrap();
        assert!(k.has_bat("copy"));
        assert_eq!(k.bat("copy").unwrap().read().recover().len(), 1);
        k.eval_mil(r#"unregister("copy");"#).unwrap();
        assert!(!k.has_bat("copy"));
    }

    #[test]
    fn select_slice_sort_methods() {
        let k = kernel();
        let v = k
            .eval_mil(
                r#"
                VAR b := new(void, int);
                b.insert(5); b.insert(1); b.insert(9); b.insert(3);
                VAR s := b.select(2, 6);
                RETURN s.count;
                "#,
            )
            .unwrap();
        assert_eq!(v, MilValue::Atom(Atom::Int(2)));
        let v = k
            .eval_mil(
                r#"
                VAR b := new(void, int);
                b.insert(5); b.insert(1); b.insert(9);
                RETURN (b.sort).slice(0, 1).max;
                "#,
            )
            .unwrap();
        assert_eq!(v, MilValue::Atom(Atom::Int(1)));
    }

    #[test]
    fn join_method_combines_bats() {
        let k = kernel();
        let v = k
            .eval_mil(
                r#"
                VAR pos := new(void, str);
                pos.insert("schumacher");
                VAR team := new(str, str);
                team.insert("schumacher", "ferrari");
                VAR j := pos.join(team);
                RETURN j.find(0 + 0);
                "#,
            )
            .unwrap_err();
        // find(int) on oid-headed bat misses; validates typed find errors.
        assert!(matches!(v, MonetError::NotFound(_)));
    }

    #[test]
    fn user_proc_definition_and_call() {
        let k = kernel();
        let v = k
            .eval_mil(
                r#"
                PROC quant(dbl x) : int := {
                    RETURN int(x * 10.0);
                };
                RETURN quant(0.73);
                "#,
            )
            .unwrap();
        assert_eq!(v, MilValue::Atom(Atom::Int(7)));
    }

    #[test]
    fn proc_with_bat_typed_params_like_fig4() {
        let k = kernel();
        let v = k
            .eval_mil(
                r#"
                PROC combine(BAT[oid,dbl] f1, BAT[oid,dbl] f2) : dbl := {
                    RETURN f1.sum + f2.sum;
                };
                VAR a := new(void, dbl); a.insert(1.0); a.insert(2.0);
                VAR b := new(void, dbl); b.insert(0.5);
                RETURN combine(a, b);
                "#,
            )
            .unwrap();
        assert_eq!(v, MilValue::Atom(Atom::Dbl(3.5)));
    }

    #[test]
    fn proc_arity_mismatch_errors() {
        let k = kernel();
        let err = k
            .eval_mil("PROC f(int a) : int := { RETURN a; }; RETURN f(1, 2);")
            .unwrap_err();
        assert!(matches!(err, MonetError::Eval(_)));
    }

    #[test]
    fn parallel_block_inserts_into_shared_bat() {
        let k = kernel();
        let v = k
            .eval_mil(
                r#"
                VAR BrProcesa := threadcnt(4);
                VAR parEval := new(str, dbl);
                PARALLEL {
                    parEval.insert("Service", 0.2);
                    parEval.insert("Forehand", 0.5);
                    parEval.insert("Smash", 0.3);
                    parEval.insert("Backhand", 0.4);
                }
                RETURN parEval.count;
                "#,
            )
            .unwrap();
        assert_eq!(v, MilValue::Atom(Atom::Int(4)));
    }

    #[test]
    fn parallel_block_merges_var_bindings() {
        let k = kernel();
        let v = k
            .eval_mil(
                r#"
                threadcnt(3);
                PARALLEL {
                    VAR a := 1 + 1;
                    VAR b := 2 * 2;
                    VAR c := 9 - 3;
                }
                RETURN a + b + c;
                "#,
            )
            .unwrap();
        assert_eq!(v, MilValue::Atom(Atom::Int(12)));
    }

    #[test]
    fn conversions_and_builtins() {
        let k = kernel();
        assert_eq!(
            k.eval_mil(r#"RETURN int("42");"#).unwrap(),
            MilValue::Atom(Atom::Int(42))
        );
        assert_eq!(
            k.eval_mil("RETURN dbl(3);").unwrap(),
            MilValue::Atom(Atom::Dbl(3.0))
        );
        assert_eq!(
            k.eval_mil("RETURN sqrt(16.0);").unwrap(),
            MilValue::Atom(Atom::Dbl(4.0))
        );
        assert_eq!(
            k.eval_mil("RETURN abs(-2.5);").unwrap(),
            MilValue::Atom(Atom::Dbl(2.5))
        );
        assert!(k.eval_mil(r#"error("bad");"#).is_err());
    }

    #[test]
    fn program_without_return_yields_nil() {
        let k = kernel();
        assert_eq!(k.eval_mil("VAR x := 3;").unwrap(), MilValue::Nil);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let k = kernel();
        let err = k.eval_mil("VAR x := 1;\nVAR y = 2;").unwrap_err();
        match err {
            MonetError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn undefined_variable_and_unknown_method() {
        let k = kernel();
        assert!(k.eval_mil("RETURN nosuch;").is_err());
        assert!(k
            .eval_mil("VAR b := new(void, int); RETURN b.frobnicate;")
            .is_err());
    }

    #[test]
    fn while_loop_accumulates() {
        let k = kernel();
        let v = k
            .eval_mil(
                r#"
                VAR i := 0;
                VAR sum := 0;
                WHILE (i < 5) {
                    sum := sum + i;
                    i := i + 1;
                }
                RETURN sum;
                "#,
            )
            .unwrap();
        assert_eq!(v, MilValue::Atom(Atom::Int(10)));
    }

    #[test]
    fn while_body_return_propagates() {
        let k = kernel();
        let v = k
            .eval_mil("VAR i := 0; WHILE (true) { i := i + 1; IF (i == 3) { RETURN i; } }")
            .unwrap();
        assert_eq!(v, MilValue::Atom(Atom::Int(3)));
    }

    #[test]
    fn if_else_chain_selects_branch() {
        let k = kernel();
        let prog = |x: i64| {
            format!(
                r#"
                VAR x := {x};
                VAR label := "low";
                IF (x > 10) {{
                    label := "high";
                }} ELSE IF (x > 5) {{
                    label := "mid";
                }} ELSE {{
                    label := "low";
                }}
                RETURN label;
                "#
            )
        };
        for (x, expect) in [(20, "high"), (7, "mid"), (1, "low")] {
            assert_eq!(
                k.eval_mil(&prog(x)).unwrap(),
                MilValue::Atom(Atom::str(expect))
            );
        }
    }

    #[test]
    fn bool_literals_and_non_bit_condition_errors() {
        let k = kernel();
        assert_eq!(
            k.eval_mil("RETURN true;").unwrap(),
            MilValue::Atom(Atom::Bit(true))
        );
        assert_eq!(
            k.eval_mil("RETURN FALSE;").unwrap(),
            MilValue::Atom(Atom::Bit(false))
        );
        let err = k.eval_mil("WHILE (1) { }").unwrap_err();
        assert!(matches!(err, MonetError::TypeMismatch { .. }));
    }

    #[test]
    fn infinite_loop_exhausts_fuel_instead_of_hanging() {
        let k = kernel();
        let budget = ExecBudget::unlimited().with_fuel(10_000);
        // The acceptance criterion: a busy loop must come back with
        // BudgetExhausted, not wedge the kernel thread.
        let err = k.eval_mil_guarded("WHILE (true) { }", &budget).unwrap_err();
        assert_eq!(err, MonetError::BudgetExhausted { fuel: 10_000 });
        let err = k
            .eval_mil_guarded("VAR i := 0; WHILE (true) { i := i + 1; }", &budget)
            .unwrap_err();
        assert_eq!(err, MonetError::BudgetExhausted { fuel: 10_000 });
    }

    #[test]
    fn guarded_run_within_budget_succeeds() {
        let k = kernel();
        let budget = ExecBudget::unlimited().with_fuel(10_000);
        let v = k
            .eval_mil_guarded(
                "VAR i := 0; WHILE (i < 10) { i := i + 1; } RETURN i;",
                &budget,
            )
            .unwrap();
        assert_eq!(v, MilValue::Atom(Atom::Int(10)));
    }

    #[test]
    fn runaway_recursion_is_capped() {
        let k = kernel();
        let err = k
            .eval_mil("PROC f(int x) : int := { RETURN f(x + 1); }; RETURN f(0);")
            .unwrap_err();
        assert!(matches!(err, MonetError::Eval(msg) if msg.contains("depth")));
    }

    #[test]
    fn cancellation_aborts_parallel_evaluation() {
        let k = kernel();
        let token = crate::guard::CancellationToken::new();
        token.cancel();
        let budget = ExecBudget::unlimited().with_cancel(token);
        let err = k
            .eval_mil_guarded("VAR i := 0; WHILE (true) { i := i + 1; }", &budget)
            .unwrap_err();
        assert_eq!(err, MonetError::Interrupted);
    }

    #[test]
    fn fuel_budget_spans_parallel_threads() {
        let k = kernel();
        let budget = ExecBudget::unlimited().with_fuel(500);
        let err = k
            .eval_mil_guarded(
                r#"
                threadcnt(2);
                PARALLEL {
                    WHILE (true) { }
                    WHILE (true) { }
                }
                "#,
                &budget,
            )
            .unwrap_err();
        assert_eq!(err, MonetError::BudgetExhausted { fuel: 500 });
    }

    #[test]
    fn the_method_table_lists_every_dispatched_method() {
        let k = kernel();
        for method in BAT_METHODS {
            let program = format!("VAR b := new(void, int); RETURN b.{method};");
            if let Err(MonetError::Eval(message)) = k.eval_mil(&program) {
                assert!(!message.contains("unknown BAT method"), "{message}");
            }
        }
    }

    #[test]
    fn parameters_are_bound_at_evaluation() {
        let k = kernel();
        let program = k
            .prepare(r#"VAR b := new(void, str); b.insert($0); RETURN b.select($1).count + $2;"#)
            .unwrap();
        let params = |name: &str| [Atom::str("a\"$0"), Atom::str(name), Atom::Int(10)];
        let run = |name: &str| {
            k.eval_prepared(&program, &params(name), &ExecBudget::unlimited(), &[])
                .unwrap()
        };
        assert_eq!(run("a\"$0"), MilValue::Atom(Atom::Int(11)));
        assert_eq!(run("b"), MilValue::Atom(Atom::Int(10)));
        // A missing parameter is a typed eval error, not a panic.
        let err = k
            .eval_prepared(&program, &params("a")[..2], &ExecBudget::unlimited(), &[])
            .unwrap_err();
        assert!(matches!(err, MonetError::Eval(m) if m.contains("$2")));
        for bad in [
            "RETURN $;",
            "RETURN $x;",
            "RETURN $99999999999999999999999;",
        ] {
            assert!(
                matches!(k.prepare(bad), Err(MonetError::Parse { .. })),
                "{bad}"
            );
        }
    }

    #[test]
    fn hostile_nesting_and_overflowing_arithmetic_are_errors() {
        let k = kernel();
        let deep = format!("RETURN {}1{};", "(".repeat(5_000), ")".repeat(5_000));
        assert!(matches!(k.eval_mil(&deep), Err(MonetError::Parse { .. })));
        let negs = format!("RETURN {}1;", "-".repeat(5_000));
        assert!(matches!(k.eval_mil(&negs), Err(MonetError::Parse { .. })));
        let blocks = format!("{}{}", "IF (true) {".repeat(5_000), "}".repeat(5_000));
        assert!(matches!(k.eval_mil(&blocks), Err(MonetError::Parse { .. })));
        let min = "(-9223372036854775807 - 1)";
        assert_eq!(
            k.eval_mil(&format!("RETURN {min} / -1;")).unwrap(),
            MilValue::Atom(Atom::Int(i64::MIN))
        );
        assert_eq!(
            k.eval_mil(&format!("RETURN -{min};")).unwrap(),
            MilValue::Atom(Atom::Int(i64::MIN))
        );
    }

    #[test]
    fn histogram_and_unique_methods() {
        let k = kernel();
        let v = k
            .eval_mil(
                r#"
                VAR b := new(void, str);
                b.insert("a"); b.insert("b"); b.insert("a");
                RETURN b.histogram.find("a");
                "#,
            )
            .unwrap();
        assert_eq!(v, MilValue::Atom(Atom::Int(2)));
        let v = k
            .eval_mil(
                r#"
                VAR b := new(void, str);
                b.insert("a"); b.insert("b"); b.insert("a");
                RETURN b.unique.count;
                "#,
            )
            .unwrap();
        assert_eq!(v, MilValue::Atom(Atom::Int(2)));
    }
}
