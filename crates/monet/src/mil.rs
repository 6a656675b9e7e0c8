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
//! * `RETURN expr;` and `#`-comments.
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
use std::sync::Arc;

use parking_lot::RwLock;

use crate::bat::Bat;
use crate::error::{MonetError, Result};
use crate::guard::{ExecBudget, ExecGuard};
use crate::kernel::{BatHandle, Kernel};
use crate::ops::{self, Aggregate};
use crate::parallel;
use crate::value::{Atom, AtomType};

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
        Ok(self.as_bat()?.read().clone())
    }
}

impl fmt::Debug for MilValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MilValue::Nil => write!(f, "Nil"),
            MilValue::Atom(a) => write!(f, "Atom({a})"),
            MilValue::Bat(b) => write!(f, "Bat(len={})", b.read().len()),
        }
    }
}

impl fmt::Display for MilValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MilValue::Nil => write!(f, "nil"),
            MilValue::Atom(a) => write!(f, "{a}"),
            MilValue::Bat(b) => {
                let bat = b.read();
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
            (MilValue::Bat(a), MilValue::Bat(b)) => Arc::ptr_eq(a, b) || *a.read() == *b.read(),
            _ => false,
        }
    }
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Dbl(f64),
    Str(String),
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Semi,
    Colon,
    Dot,
    Assign, // :=
    Plus,
    Minus,
    Star,
    Slash,
    Lt,
    Gt,
    Le,
    Ge,
    EqEq,
    Ne,
}

#[derive(Debug, Clone)]
struct SpannedTok {
    tok: Tok,
    line: usize,
}

fn lex(src: &str) -> Result<Vec<SpannedTok>> {
    let mut toks = Vec::new();
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0;
    let mut line = 1;
    let n = bytes.len();
    while i < n {
        let c = bytes[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '#' => {
                while i < n && bytes[i] != '\n' {
                    i += 1;
                }
            }
            '(' => {
                toks.push(SpannedTok {
                    tok: Tok::LParen,
                    line,
                });
                i += 1;
            }
            ')' => {
                toks.push(SpannedTok {
                    tok: Tok::RParen,
                    line,
                });
                i += 1;
            }
            '{' => {
                toks.push(SpannedTok {
                    tok: Tok::LBrace,
                    line,
                });
                i += 1;
            }
            '}' => {
                toks.push(SpannedTok {
                    tok: Tok::RBrace,
                    line,
                });
                i += 1;
            }
            '[' => {
                toks.push(SpannedTok {
                    tok: Tok::LBracket,
                    line,
                });
                i += 1;
            }
            ']' => {
                toks.push(SpannedTok {
                    tok: Tok::RBracket,
                    line,
                });
                i += 1;
            }
            ',' => {
                toks.push(SpannedTok {
                    tok: Tok::Comma,
                    line,
                });
                i += 1;
            }
            ';' => {
                toks.push(SpannedTok {
                    tok: Tok::Semi,
                    line,
                });
                i += 1;
            }
            '.' => {
                toks.push(SpannedTok {
                    tok: Tok::Dot,
                    line,
                });
                i += 1;
            }
            ':' => {
                if i + 1 < n && bytes[i + 1] == '=' {
                    toks.push(SpannedTok {
                        tok: Tok::Assign,
                        line,
                    });
                    i += 2;
                } else {
                    toks.push(SpannedTok {
                        tok: Tok::Colon,
                        line,
                    });
                    i += 1;
                }
            }
            '+' => {
                toks.push(SpannedTok {
                    tok: Tok::Plus,
                    line,
                });
                i += 1;
            }
            '-' => {
                toks.push(SpannedTok {
                    tok: Tok::Minus,
                    line,
                });
                i += 1;
            }
            '*' => {
                toks.push(SpannedTok {
                    tok: Tok::Star,
                    line,
                });
                i += 1;
            }
            '/' => {
                toks.push(SpannedTok {
                    tok: Tok::Slash,
                    line,
                });
                i += 1;
            }
            '<' => {
                if i + 1 < n && bytes[i + 1] == '=' {
                    toks.push(SpannedTok { tok: Tok::Le, line });
                    i += 2;
                } else {
                    toks.push(SpannedTok { tok: Tok::Lt, line });
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < n && bytes[i + 1] == '=' {
                    toks.push(SpannedTok { tok: Tok::Ge, line });
                    i += 2;
                } else {
                    toks.push(SpannedTok { tok: Tok::Gt, line });
                    i += 1;
                }
            }
            '=' => {
                if i + 1 < n && bytes[i + 1] == '=' {
                    toks.push(SpannedTok {
                        tok: Tok::EqEq,
                        line,
                    });
                    i += 2;
                } else {
                    return Err(MonetError::Parse {
                        line,
                        message: "single '=' (use ':=' or '==')".into(),
                    });
                }
            }
            '!' => {
                if i + 1 < n && bytes[i + 1] == '=' {
                    toks.push(SpannedTok { tok: Tok::Ne, line });
                    i += 2;
                } else {
                    return Err(MonetError::Parse {
                        line,
                        message: "lone '!'".into(),
                    });
                }
            }
            '"' => {
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= n {
                        return Err(MonetError::Parse {
                            line,
                            message: "unterminated string".into(),
                        });
                    }
                    match bytes[i] {
                        '"' => {
                            i += 1;
                            break;
                        }
                        '\\' => {
                            i += 1;
                            if i >= n {
                                return Err(MonetError::Parse {
                                    line,
                                    message: "dangling escape".into(),
                                });
                            }
                            s.push(match bytes[i] {
                                'n' => '\n',
                                't' => '\t',
                                other => other,
                            });
                            i += 1;
                        }
                        c => {
                            if c == '\n' {
                                line += 1;
                            }
                            s.push(c);
                            i += 1;
                        }
                    }
                }
                toks.push(SpannedTok {
                    tok: Tok::Str(s),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < n && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let mut is_float = false;
                if i < n && bytes[i] == '.' && i + 1 < n && bytes[i + 1].is_ascii_digit() {
                    is_float = true;
                    i += 1;
                    while i < n && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < n && (bytes[i] == 'e' || bytes[i] == 'E') {
                    let mut j = i + 1;
                    if j < n && (bytes[j] == '+' || bytes[j] == '-') {
                        j += 1;
                    }
                    if j < n && bytes[j].is_ascii_digit() {
                        is_float = true;
                        i = j;
                        while i < n && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let text: String = bytes[start..i].iter().collect();
                let tok = if is_float {
                    Tok::Dbl(text.parse().map_err(|_| MonetError::Parse {
                        line,
                        message: format!("bad float literal '{text}'"),
                    })?)
                } else {
                    Tok::Int(text.parse().map_err(|_| MonetError::Parse {
                        line,
                        message: format!("bad int literal '{text}'"),
                    })?)
                };
                toks.push(SpannedTok { tok, line });
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < n && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                toks.push(SpannedTok {
                    tok: Tok::Ident(text),
                    line,
                });
            }
            other => {
                return Err(MonetError::Parse {
                    line,
                    message: format!("unexpected character '{other}'"),
                })
            }
        }
    }
    Ok(toks)
}

// ---------------------------------------------------------------------------
// AST + parser
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne,
}

#[derive(Debug, Clone)]
enum Expr {
    Int(i64),
    Dbl(f64),
    Str(String),
    Ident(String),
    Bit(bool),
    Call {
        name: String,
        args: Vec<Expr>,
    },
    Method {
        recv: Box<Expr>,
        name: String,
        args: Vec<Expr>,
    },
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    Neg(Box<Expr>),
}

#[derive(Debug, Clone)]
enum Stmt {
    Var {
        name: String,
        expr: Expr,
    },
    Assign {
        name: String,
        expr: Expr,
    },
    Expr(Expr),
    Return(Expr),
    Parallel(Vec<Stmt>),
    While {
        cond: Expr,
        body: Vec<Stmt>,
    },
    If {
        cond: Expr,
        then_body: Vec<Stmt>,
        else_body: Vec<Stmt>,
    },
}

/// A user-defined MIL procedure.
#[derive(Debug, Clone)]
struct ProcDef {
    params: Vec<String>,
    body: Vec<Stmt>,
}

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(0)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|t| t.tok.clone());
        self.pos += 1;
        t
    }

    fn expect(&mut self, tok: &Tok, what: &str) -> Result<()> {
        if self.peek() == Some(tok) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn err(&self, message: String) -> MonetError {
        MonetError::Parse {
            line: self.line(),
            message,
        }
    }

    fn ident(&mut self, what: &str) -> Result<String> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    /// Keyword check, case-insensitive (the paper mixes `PROC`/`VAR` with
    /// lowercase identifiers).
    fn is_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn parse_program(&mut self) -> Result<(HashMap<String, ProcDef>, Vec<Stmt>)> {
        let mut procs = HashMap::new();
        let mut stmts = Vec::new();
        while self.peek().is_some() {
            if self.is_kw("PROC") {
                self.bump();
                let name = self.ident("procedure name")?;
                let def = self.parse_proc_tail()?;
                procs.insert(name, def);
            } else {
                stmts.push(self.parse_stmt()?);
            }
        }
        Ok((procs, stmts))
    }

    fn parse_proc_tail(&mut self) -> Result<ProcDef> {
        self.expect(&Tok::LParen, "'('")?;
        let mut params = Vec::new();
        if self.peek() != Some(&Tok::RParen) {
            loop {
                // Parameter: [type] name, where type may be `BAT[t1,t2]` or
                // an atom type. The last identifier before ',' or ')' is the
                // parameter name; preceding type tokens are skipped.
                let mut last_ident: Option<String> = None;
                loop {
                    match self.peek() {
                        Some(Tok::Ident(_)) => {
                            last_ident = Some(self.ident("parameter")?);
                        }
                        Some(Tok::LBracket) => {
                            // skip [t1,t2]
                            self.bump();
                            while self.peek() != Some(&Tok::RBracket) {
                                if self.bump().is_none() {
                                    return Err(self.err("unterminated '['".into()));
                                }
                            }
                            self.bump();
                        }
                        Some(Tok::Comma) | Some(Tok::RParen) => break,
                        other => {
                            return Err(self.err(format!("unexpected token in params: {other:?}")))
                        }
                    }
                }
                params.push(last_ident.ok_or_else(|| self.err("missing parameter name".into()))?);
                if self.peek() == Some(&Tok::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen, "')'")?;
        // Optional ': returntype'
        if self.peek() == Some(&Tok::Colon) {
            self.bump();
            self.ident("return type")?;
        }
        self.expect(&Tok::Assign, "':='")?;
        let body = self.parse_block("procedure body")?;
        Ok(ProcDef { params, body })
    }

    /// Parses `{ stmt* }` with an optional trailing `;`.
    fn parse_block(&mut self, what: &str) -> Result<Vec<Stmt>> {
        self.expect(&Tok::LBrace, "'{'")?;
        let mut body = Vec::new();
        while self.peek() != Some(&Tok::RBrace) {
            if self.peek().is_none() {
                return Err(self.err(format!("unterminated {what}")));
            }
            body.push(self.parse_stmt()?);
        }
        self.bump();
        if self.peek() == Some(&Tok::Semi) {
            self.bump();
        }
        Ok(body)
    }

    fn parse_stmt(&mut self) -> Result<Stmt> {
        if self.is_kw("WHILE") {
            self.bump();
            self.expect(&Tok::LParen, "'('")?;
            let cond = self.parse_expr()?;
            self.expect(&Tok::RParen, "')'")?;
            let body = self.parse_block("WHILE body")?;
            return Ok(Stmt::While { cond, body });
        }
        if self.is_kw("IF") {
            self.bump();
            self.expect(&Tok::LParen, "'('")?;
            let cond = self.parse_expr()?;
            self.expect(&Tok::RParen, "')'")?;
            let then_body = self.parse_block("IF body")?;
            let else_body = if self.is_kw("ELSE") {
                self.bump();
                if self.is_kw("IF") {
                    // `ELSE IF (…) { … }` chains as a nested conditional.
                    vec![self.parse_stmt()?]
                } else {
                    self.parse_block("ELSE body")?
                }
            } else {
                Vec::new()
            };
            return Ok(Stmt::If {
                cond,
                then_body,
                else_body,
            });
        }
        if self.is_kw("VAR") {
            self.bump();
            let name = self.ident("variable name")?;
            self.expect(&Tok::Assign, "':='")?;
            let expr = self.parse_expr()?;
            self.expect(&Tok::Semi, "';'")?;
            return Ok(Stmt::Var { name, expr });
        }
        if self.is_kw("RETURN") {
            self.bump();
            let expr = self.parse_expr()?;
            self.expect(&Tok::Semi, "';'")?;
            return Ok(Stmt::Return(expr));
        }
        if self.is_kw("PARALLEL") {
            self.bump();
            let body = self.parse_block("PARALLEL block")?;
            return Ok(Stmt::Parallel(body));
        }
        // Assignment `x := expr;` vs expression statement.
        if let Some(Tok::Ident(name)) = self.peek().cloned() {
            if self.toks.get(self.pos + 1).map(|t| &t.tok) == Some(&Tok::Assign) {
                self.bump();
                self.bump();
                let expr = self.parse_expr()?;
                self.expect(&Tok::Semi, "';'")?;
                return Ok(Stmt::Assign { name, expr });
            }
        }
        let expr = self.parse_expr()?;
        self.expect(&Tok::Semi, "';'")?;
        Ok(Stmt::Expr(expr))
    }

    fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_cmp()
    }

    fn parse_cmp(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_add()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Lt) => BinOp::Lt,
                Some(Tok::Gt) => BinOp::Gt,
                Some(Tok::Le) => BinOp::Le,
                Some(Tok::Ge) => BinOp::Ge,
                Some(Tok::EqEq) => BinOp::Eq,
                Some(Tok::Ne) => BinOp::Ne,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_add()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_add(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_mul()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_mul()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_mul(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => BinOp::Mul,
                Some(Tok::Slash) => BinOp::Div,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_unary()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.peek() == Some(&Tok::Minus) {
            self.bump();
            let inner = self.parse_unary()?;
            return Ok(Expr::Neg(Box::new(inner)));
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> Result<Expr> {
        let mut expr = self.parse_primary()?;
        while self.peek() == Some(&Tok::Dot) {
            self.bump();
            let name = self.ident("method name")?;
            let args = if self.peek() == Some(&Tok::LParen) {
                self.parse_args()?
            } else {
                Vec::new()
            };
            expr = Expr::Method {
                recv: Box::new(expr),
                name,
                args,
            };
        }
        Ok(expr)
    }

    fn parse_args(&mut self) -> Result<Vec<Expr>> {
        self.expect(&Tok::LParen, "'('")?;
        let mut args = Vec::new();
        if self.peek() != Some(&Tok::RParen) {
            loop {
                args.push(self.parse_expr()?);
                if self.peek() == Some(&Tok::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen, "')'")?;
        Ok(args)
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.peek().cloned() {
            Some(Tok::Int(v)) => {
                self.bump();
                Ok(Expr::Int(v))
            }
            Some(Tok::Dbl(v)) => {
                self.bump();
                Ok(Expr::Dbl(v))
            }
            Some(Tok::Str(s)) => {
                self.bump();
                Ok(Expr::Str(s))
            }
            Some(Tok::LParen) => {
                self.bump();
                let e = self.parse_expr()?;
                self.expect(&Tok::RParen, "')'")?;
                Ok(e)
            }
            Some(Tok::Ident(name)) => {
                self.bump();
                if name.eq_ignore_ascii_case("true") {
                    Ok(Expr::Bit(true))
                } else if name.eq_ignore_ascii_case("false") {
                    Ok(Expr::Bit(false))
                } else if self.peek() == Some(&Tok::LParen) {
                    let args = self.parse_args()?;
                    Ok(Expr::Call { name, args })
                } else {
                    Ok(Expr::Ident(name))
                }
            }
            other => Err(self.err(format!("unexpected token {other:?}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Evaluator
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct Env<'k> {
    kernel: &'k Kernel,
    vars: HashMap<String, MilValue>,
    procs: Arc<HashMap<String, ProcDef>>,
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

/// Parses and evaluates a MIL program, returning the value of the first
/// executed `RETURN` at the top level (or [`MilValue::Nil`]).
///
/// Runs with an unlimited [`ExecBudget`]; a `WHILE (true) { }` program
/// will spin forever. Use [`eval_program_guarded`] to bound execution.
pub fn eval_program(kernel: &Kernel, source: &str) -> Result<MilValue> {
    eval_program_guarded(kernel, source, &ExecBudget::unlimited())
}

/// Like [`eval_program`], but bounded by `budget`: evaluation fails with
/// [`MonetError::BudgetExhausted`], [`MonetError::Deadline`] or
/// [`MonetError::Interrupted`] when a limit trips, instead of running
/// (potentially) forever.
pub fn eval_program_guarded(
    kernel: &Kernel,
    source: &str,
    budget: &ExecBudget,
) -> Result<MilValue> {
    let toks = lex(source)?;
    let mut parser = Parser { toks, pos: 0 };
    let (procs, stmts) = parser.parse_program()?;
    let mut env = Env {
        kernel,
        vars: HashMap::new(),
        procs: Arc::new(procs),
        threads: Arc::new(AtomicUsize::new(1)),
        guard: Arc::new(budget.start()),
        depth: 0,
    };
    let out = exec_stmts(&mut env, &stmts);
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
        Expr::Ident(name) => env.lookup(name),
        Expr::Neg(inner) => {
            let v = eval_expr(env, inner)?.as_atom()?;
            match v {
                Atom::Int(i) => Ok(MilValue::Atom(Atom::Int(-i))),
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
            let recv = eval_expr(env, recv)?;
            let mut argv = Vec::with_capacity(args.len());
            for a in args {
                argv.push(eval_expr(env, a)?);
            }
            eval_method(env, &recv, name, &argv)
        }
    }
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
                Atom::Int(a / b)
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
            Ok(MilValue::Bat(env.kernel.bat(name.as_str()?)?))
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
            let n = b.read().len();
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
            if let Some(def) = env.procs.get(name).cloned() {
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
                    vars: def.params.iter().cloned().zip(argv).collect(),
                    procs: Arc::clone(&env.procs),
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

fn eval_method(env: &Env<'_>, recv: &MilValue, name: &str, args: &[MilValue]) -> Result<MilValue> {
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
        .map_or(0, |handle| handle.read().len() as u64);
    let start = std::time::Instant::now();
    let out = eval_method_op(env, recv, name, args);
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
    name: &str,
    args: &[MilValue],
) -> Result<MilValue> {
    let handle = recv
        .as_bat()
        .map_err(|_| MonetError::Eval(format!("method '.{name}' requires a BAT receiver")))?;
    match name {
        "insert" => {
            let mut bat = handle.write();
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
                .replace(args[0].as_atom()?, args[1].as_atom()?)?;
            Ok(MilValue::Bat(handle))
        }
        "reverse" => Ok(MilValue::new_bat(handle.read().reverse())),
        "mirror" => Ok(MilValue::new_bat(handle.read().mirror())),
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
            Ok(MilValue::new_bat(handle.read().mark(base)))
        }
        "count" => Ok(MilValue::Atom(Atom::Int(handle.read().len() as i64))),
        "max" | "min" | "sum" | "avg" => {
            let kind = match name {
                "max" => Aggregate::Max,
                "min" => Aggregate::Min,
                "sum" => Aggregate::Sum,
                _ => Aggregate::Avg,
            };
            Ok(MilValue::Atom(ops::aggregate(&handle.read(), kind)?))
        }
        "find" => {
            let key = args
                .first()
                .ok_or_else(|| MonetError::Eval("find(key)".into()))?
                .as_atom()?;
            match handle.read().find(&key) {
                Some(v) => Ok(MilValue::Atom(v)),
                None => Err(MonetError::NotFound(format!("key {key} in BAT"))),
            }
        }
        "select" => match args.len() {
            1 => Ok(MilValue::new_bat(ops::select_eq_ctx(
                &handle.read(),
                &args[0].as_atom()?,
                &op_ctx(env),
            )?)),
            2 => Ok(MilValue::new_bat(ops::select_range_ctx(
                &handle.read(),
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
            Ok(MilValue::new_bat(handle.read().slice(lo, hi)))
        }
        "join" => {
            let other = args
                .first()
                .ok_or_else(|| MonetError::Eval("join(bat)".into()))?
                .as_bat()?;
            let l = handle.read();
            let r = other.read();
            // Reuse (or build) the kernel's cached index over r's head.
            let idx = env.kernel.head_index(&r);
            Ok(MilValue::new_bat(ops::join_ctx(
                &l,
                &r,
                idx.as_deref(),
                &op_ctx(env),
            )?))
        }
        "semijoin" => {
            let other = args
                .first()
                .ok_or_else(|| MonetError::Eval("semijoin(bat)".into()))?
                .as_bat()?;
            let l = handle.read();
            let r = other.read();
            let idx = env.kernel.head_index(&r);
            let out = ops::semijoin_ctx(&l, &r, idx.as_deref(), &op_ctx(env))?;
            drop((l, r));
            Ok(MilValue::new_bat(out))
        }
        "diff" => {
            let other = args
                .first()
                .ok_or_else(|| MonetError::Eval("diff(bat)".into()))?
                .as_bat()?;
            let l = handle.read();
            let r = other.read();
            let idx = env.kernel.head_index(&r);
            let out = ops::antijoin_ctx(&l, &r, idx.as_deref(), &op_ctx(env))?;
            drop((l, r));
            Ok(MilValue::new_bat(out))
        }
        "unique" => Ok(MilValue::new_bat(ops::unique_tail(&handle.read()))),
        "histogram" => Ok(MilValue::new_bat(ops::histogram(&handle.read()))),
        "sort" => Ok(MilValue::new_bat(ops::sort_by_tail(&handle.read()))),
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
        assert_eq!(k.bat("copy").unwrap().read().len(), 1);
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
