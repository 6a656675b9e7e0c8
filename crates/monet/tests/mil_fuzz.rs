//! Byte-level fuzzing of the MIL front end, the one parser in the kernel
//! that faces text from outside the program (the console, MEL callers):
//! arbitrary bytes, and soups of MIL tokens — `$k` parameters, keywords,
//! builtins, methods, literals and punctuation — go through
//! `Kernel::prepare`, `Kernel::eval_prepared` and `Kernel::eval_mil`
//! under a small fuel budget. Nothing may panic, on the calling thread
//! or in a `PARALLEL` worker (which would come back as `WorkerPanic`):
//! every failure is a typed `MonetError`.

use f1_monet::prelude::*;
use proptest::prelude::*;

const VOCABULARY: [&str; 78] = [
    "VAR",
    "x",
    "y",
    "b",
    ":=",
    ";",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ",",
    ".",
    ":",
    "+",
    "-",
    "*",
    "/",
    "<",
    ">",
    "<=",
    ">=",
    "==",
    "!=",
    "=",
    "!",
    "$0",
    "$1",
    "$2",
    "$9",
    "$",
    "0",
    "1",
    "-1",
    "7",
    "2.5",
    "1e3",
    "9223372036854775807",
    "\"s\"",
    "\"$0\"",
    "\"",
    "true",
    "false",
    "WHILE",
    "IF",
    "ELSE",
    "RETURN",
    "PARALLEL",
    "PROC",
    "threadcnt",
    "new",
    "void",
    "int",
    "dbl",
    "str",
    "oid",
    "bat",
    "\"t\"",
    "count",
    "insert",
    "select",
    "mirror",
    "join",
    "semijoin",
    "diff",
    "max",
    "sum",
    "slice",
    "mark",
    "find",
    "reverse",
    "sort",
    "histogram",
    "unique",
    "print",
    "error",
    "register",
];

/// A kernel with a small catalog for `bat("t")` to read.
fn kernel() -> Kernel {
    let k = Kernel::new();
    let tail = [3, 1, 3, 2].map(Atom::Int);
    k.set_bat("t", Bat::from_tail(AtomType::Int, tail).unwrap());
    k
}

/// Runs `text` every way the kernel accepts program text, and checks
/// that every failure is typed and none is a caught panic.
fn run(text: &str) -> std::result::Result<(), String> {
    let k = kernel();
    let budget = ExecBudget::unlimited().with_fuel(500);
    let params = [Atom::Int(2), Atom::str("t"), Atom::Dbl(f64::NAN)];
    let mut outcomes = vec![k.eval_mil_guarded(text, &budget)];
    if let Ok(program) = k.prepare(text) {
        for given in [&params[..], &params[..1], &[]] {
            outcomes.push(k.eval_prepared(&program, given, &budget, &[]));
        }
    }
    match outcomes.into_iter().find_map(|out| out.err()) {
        Some(e @ MonetError::WorkerPanic(_)) => Err(format!("{text:?}: {e}")),
        _ => Ok(()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_048))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..160)) {
        let text = String::from_utf8_lossy(&bytes);
        prop_assert!(run(&text).is_ok(), "{:?}", run(&text));
    }

    #[test]
    fn token_soup_never_panics(tokens in proptest::collection::vec(0usize..VOCABULARY.len(), 0..60)) {
        let text: Vec<&str> = tokens.iter().map(|&t| VOCABULARY[t]).collect();
        let text = text.join(" ");
        prop_assert!(run(&text).is_ok(), "{:?}", run(&text));
    }

    /// Soup inside a frame that parses, so more of it reaches evaluation.
    #[test]
    fn statement_soup_never_panics(
        tokens in proptest::collection::vec(0usize..VOCABULARY.len(), 0..24),
        frame in 0usize..4,
    ) {
        let soup: Vec<&str> = tokens.iter().map(|&t| VOCABULARY[t]).collect();
        let soup = soup.join(" ");
        let text = match frame {
            0 => format!("VAR x := {soup};"),
            1 => format!("RETURN bat(\"t\").{soup};"),
            2 => format!("threadcnt(2); PARALLEL {{ VAR a := $0; VAR b := {soup}; }} RETURN a;"),
            _ => format!("VAR b := new(void, int); b.insert($0); RETURN b.select({soup});"),
        };
        prop_assert!(run(&text).is_ok(), "{:?}", run(&text));
    }
}

/// Every error the front end can raise is typed, with its line.
#[test]
fn malformed_programs_are_typed_parse_errors() {
    let k = kernel();
    for text in [
        "RETURN $;",
        "RETURN $ 0;",
        "RETURN $18446744073709551616;",
        "RETURN \"open",
        "RETURN \"dangling \\",
        "VAR x = 1;",
        "RETURN !x;",
        "RETURN 1 @ 2;",
        "WHILE (true) {",
    ] {
        assert!(
            matches!(k.prepare(text), Err(MonetError::Parse { .. })),
            "{text}"
        );
    }
}
