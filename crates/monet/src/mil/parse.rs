//! The MIL front end: a lexer and a recursive-descent parser from
//! program text to the statement tree the interpreter in [`super`]
//! evaluates.

use std::collections::HashMap;

use crate::error::{MonetError, Result};

/// Deepest nesting of blocks and subexpressions a program may have.
const MAX_NESTING: usize = 256;

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Dbl(f64),
    Str(String),
    /// `$k`: the program's parameter `k`.
    Param(usize),
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

/// The token of a one-character punctuation mark.
fn punctuation(c: char) -> Option<Tok> {
    Some(match c {
        '(' => Tok::LParen,
        ')' => Tok::RParen,
        '{' => Tok::LBrace,
        '}' => Tok::RBrace,
        '[' => Tok::LBracket,
        ']' => Tok::RBracket,
        ',' => Tok::Comma,
        ';' => Tok::Semi,
        '.' => Tok::Dot,
        '+' => Tok::Plus,
        '-' => Tok::Minus,
        '*' => Tok::Star,
        '/' => Tok::Slash,
        _ => return None,
    })
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
            '$' => {
                let start = i + 1;
                i = start;
                while i < n && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                let k = text.parse().map_err(|_| MonetError::Parse {
                    line,
                    message: format!("bad parameter '${text}' (a number must follow '$')"),
                })?;
                toks.push(SpannedTok {
                    tok: Tok::Param(k),
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
            other => match punctuation(other) {
                Some(tok) => {
                    toks.push(SpannedTok { tok, line });
                    i += 1;
                }
                None => {
                    return Err(MonetError::Parse {
                        line,
                        message: format!("unexpected character '{other}'"),
                    })
                }
            },
        }
    }
    Ok(toks)
}

// ---------------------------------------------------------------------------
// AST + parser
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
pub(super) enum BinOp {
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
pub(super) enum Expr {
    Int(i64),
    Dbl(f64),
    Str(String),
    /// `$k`, read from the parameters the program is evaluated with.
    Param(usize),
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
pub(super) enum Stmt {
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
pub(super) struct ProcDef {
    pub(super) params: Vec<String>,
    pub(super) body: Vec<Stmt>,
}

/// The procedures a program defines, by name, and its top-level
/// statements.
pub(super) type Program = (HashMap<String, ProcDef>, Vec<Stmt>);

/// Lexes and parses a MIL program.
pub(super) fn parse(source: &str) -> Result<Program> {
    let toks = lex(source)?;
    Parser {
        toks,
        pos: 0,
        depth: 0,
    }
    .parse_program()
}

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
    /// Open blocks and subexpressions, capped at [`MAX_NESTING`].
    depth: usize,
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

    /// Runs `inner` one nesting level deeper, failing past
    /// [`MAX_NESTING`] so that hostile input cannot overflow the stack
    /// of the parser or, later, of the evaluator.
    fn nested<T>(&mut self, inner: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth >= MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING}")));
        }
        self.depth += 1;
        let out = inner(self);
        self.depth -= 1;
        out
    }

    fn parse_program(&mut self) -> Result<Program> {
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
        self.nested(|parser| parser.parse_block_inner(what))
    }

    fn parse_block_inner(&mut self, what: &str) -> Result<Vec<Stmt>> {
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
        self.nested(|parser| {
            if parser.peek() == Some(&Tok::Minus) {
                parser.bump();
                let inner = parser.parse_unary()?;
                return Ok(Expr::Neg(Box::new(inner)));
            }
            parser.parse_postfix()
        })
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
            Some(Tok::Param(k)) => {
                self.bump();
                Ok(Expr::Param(k))
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
