//! Differential tests for prepared MIL: a program parsed once with `$k`
//! parameters and evaluated with atoms bound (`Kernel::prepare` +
//! `Kernel::eval_prepared`) must answer exactly what the same program
//! answers with every `$k` spelled out as a literal (`Kernel::eval_mil`):
//! the same value — doubles by bit pattern, BATs column by column — or
//! an error of the same kind. Covered: every atom type; NaN of either
//! sign, both zeros and both infinities; `i64::MIN`; strings holding
//! `"`, `\`, `$0`, line breaks and non-ASCII text; parameters in every
//! position a literal can take (returned, operands, conditions, method
//! and procedure arguments, type names, catalog names). A parameter
//! beyond those given is a typed eval error.

use cobra_faults::Recover;
use f1_monet::prelude::*;
use proptest::prelude::*;

/// The atoms parameters take, one pool for every type.
fn atom(i: u64) -> Atom {
    const STRS: [&str; 14] = [
        "",
        "highlight",
        "a\"b",
        "back\\slash\\",
        "$0",
        "$1 and $0",
        "naïve Ωmega 漢字",
        "int",
        "dbl",
        "line\nbreak\ttab",
        "\\n",
        "\"); unregister(\"words\"); (\"",
        "words",
        "nosuch",
    ];
    match i % 34 {
        0 => Atom::Oid(0),
        1 => Atom::Oid(5),
        2 => Atom::Oid(1 << 40),
        3 => Atom::Int(0),
        4 => Atom::Int(7),
        5 => Atom::Int(-3),
        6 => Atom::Int(i64::MAX),
        7 => Atom::Int(i64::MIN),
        8 => Atom::Dbl(0.0),
        9 => Atom::Dbl(-0.0),
        10 => Atom::Dbl(f64::from_bits(0x7ff8_0000_0000_0000)),
        11 => Atom::Dbl(f64::from_bits(0xfff8_0000_0000_0000)),
        12 => Atom::Dbl(f64::INFINITY),
        13 => Atom::Dbl(f64::NEG_INFINITY),
        14 => Atom::Dbl(1.5),
        15 => Atom::Dbl(-2.5),
        16 => Atom::Dbl(1e300),
        17 => Atom::Dbl(5e-324),
        18 => Atom::Bit(true),
        19 => Atom::Bit(false),
        k => Atom::str(STRS[(k - 20) as usize]),
    }
}

/// `atom` as MIL text that evaluates to exactly it. MIL has no oid, NaN
/// or infinity literal and no negative one, so those are expressions;
/// each is parenthesized to stand wherever a parameter can.
fn spell(a: &Atom) -> String {
    match a {
        Atom::Int(i64::MIN) => "(-9223372036854775807 - 1)".into(),
        Atom::Int(v) => format!("({v})"),
        Atom::Dbl(v) if v.is_nan() => {
            let sign = if v.is_sign_negative() { "-" } else { "" };
            format!("({sign}dbl(\"NaN\"))")
        }
        Atom::Dbl(v) if v.is_infinite() => {
            let sign = if v.is_sign_negative() { "-" } else { "" };
            format!("({sign}dbl(\"inf\"))")
        }
        Atom::Dbl(v) => format!("({v:?})"),
        Atom::Str(s) => format!("(\"{}\")", s.replace('\\', "\\\\").replace('"', "\\\"")),
        Atom::Bit(b) => format!("({b})"),
        Atom::Oid(o) => format!("(new(void, int).insert(0).mark({o}).max)"),
    }
}

/// Programs over `$0`..`$2`: every place a literal can stand.
const TEMPLATES: [&str; 22] = [
    "RETURN $0;",
    "VAR x := $0; x := $1; RETURN x;",
    "RETURN $0 == $1;",
    "RETURN $0 < $1;",
    "RETURN $0 != $1;",
    "RETURN $0 + $1;",
    "RETURN $0 / $1 - $0 * $1;",
    "RETURN -$0;",
    "RETURN str($0) + print($1);",
    "RETURN int($0) + dbl($1);",
    "IF ($0) { RETURN 1; } ELSE IF ($1) { RETURN 2; } RETURN 3;",
    "PROC f(x, y) := { RETURN y; }; RETURN f($0, $1);",
    "VAR b := new(void, $2); b.insert($0); b.insert($1); RETURN b;",
    "VAR b := new(void, $2); b.insert($0); b.insert($1); RETURN b.select($0);",
    "VAR b := new($2, $2); b.insert($0, $1); RETURN b.find($0);",
    "VAR b := new(void, $2); b.insert($1); b.insert($0); RETURN b.sort.max;",
    "RETURN bat($0).count;",
    "RETURN bat(\"words\").select($0);",
    "RETURN bat(\"nums\").select($0).count + bat(\"nums\").select($0, $1).count;",
    "RETURN bat(\"words\").slice($0, $1);",
    "RETURN bat(\"nums\").mark($0).reverse.find($1);",
    "VAR i := 0; WHILE (i < $0) { i := i + 1; } RETURN i;",
];

/// A kernel holding the catalog the templates read: string and double
/// columns, and BATs whose names are pool strings, `$0` among them.
fn kernel() -> Kernel {
    let k = Kernel::new();
    let words = (0..40).map(|i| atom(20 + i % 14));
    k.set_bat("words", Bat::from_tail(AtomType::Str, words).unwrap());
    let nums = (0..12).map(|i| atom(8 + i % 10));
    k.set_bat("nums", Bat::from_tail(AtomType::Dbl, nums).unwrap());
    for (i, name) in ["$0", "highlight", "naïve Ωmega 漢字"]
        .into_iter()
        .enumerate()
    {
        let ints = (0..=i as i64).map(Atom::Int);
        k.set_bat(name, Bat::from_tail(AtomType::Int, ints).unwrap());
    }
    k
}

/// An atom with its type and, for doubles, its bit pattern.
fn exact(a: &Atom) -> String {
    match a {
        Atom::Dbl(v) => format!("dbl:{:#018x}", v.to_bits()),
        other => format!("{}:{other}", other.atom_type().name()),
    }
}

/// What an evaluation produced, exactly: a value, or an error's kind.
fn outcome(out: &Result<MilValue>) -> String {
    match out {
        Ok(MilValue::Nil) => "nil".into(),
        Ok(MilValue::Atom(a)) => exact(a),
        Ok(MilValue::Bat(b)) => {
            let b = b.read().recover();
            let column = |atoms: Vec<Atom>| atoms.iter().map(exact).collect::<Vec<_>>();
            format!(
                "bat[{}|{}] {:?} {:?}",
                b.types().0,
                b.types().1,
                column(b.head().to_vec()),
                column(b.tail().to_vec())
            )
        }
        Err(e) => format!("error:{:?}", std::mem::discriminant(e)),
    }
}

/// `template` with every `$k` (a single digit) replaced by the spelling
/// of `params[k]`, in one pass: a spelling holding `$1` stays as it is.
fn spelled(template: &str, params: &[Atom]) -> String {
    let mut out = String::new();
    let mut chars = template.chars();
    while let Some(c) = chars.next() {
        match c {
            '$' => {
                let k = chars.next().and_then(|d| d.to_digit(10)).expect("$k");
                out.push_str(&spell(&params[k as usize]));
            }
            c => out.push(c),
        }
    }
    out
}

/// Evaluates `template` both ways on fresh kernels and compares.
fn both_ways(template: &str, params: &[Atom]) -> (String, String) {
    let budget = ExecBudget::unlimited().with_fuel(20_000);
    let k = kernel();
    let program = k.prepare(template).expect("templates parse");
    let prepared = k.eval_prepared(&program, params, &budget, &[]);
    let text = spelled(template, params);
    let literal = kernel().eval_mil_guarded(&text, &budget);
    (outcome(&prepared), outcome(&literal))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_024))]

    #[test]
    fn a_bound_parameter_equals_its_literal(
        template in 0usize..TEMPLATES.len(),
        first in 0u64..34,
        second in 0u64..34,
        ty in 0u64..40,
    ) {
        // The type-name slot is mostly a type's name, sometimes any atom.
        let types = ["void", "oid", "int", "dbl", "str", "bit"];
        let ty = match types.get(ty as usize) {
            Some(name) => Atom::str(name),
            None if ty < 34 => atom(ty),
            None => Atom::str(types[(ty % 6) as usize]),
        };
        let params = [atom(first), atom(second), ty];
        let (prepared, literal) = both_ways(TEMPLATES[template], &params);
        prop_assert_eq!(prepared, literal, "{} with {:?}", TEMPLATES[template], params);
    }
}

/// Every template, every atom in the first slot: the pool is small
/// enough to walk whole, so no type is left to chance.
#[test]
fn every_atom_in_every_template() {
    for template in TEMPLATES {
        for i in 0..34 {
            let params = [atom(i), atom(i + 1), Atom::str(atom(i).atom_type().name())];
            let (prepared, literal) = both_ways(template, &params);
            assert_eq!(prepared, literal, "{template} with {params:?}");
        }
    }
}

#[test]
fn a_hostile_string_is_data_not_program_text() {
    let k = kernel();
    let program = k
        .prepare("RETURN bat(\"words\").select($0).count;")
        .unwrap();
    let hostile = Atom::str("\"); unregister(\"words\"); (\"");
    let count = k
        .eval_prepared(&program, &[hostile], &ExecBudget::unlimited(), &[])
        .unwrap();
    assert_eq!(count, MilValue::Atom(Atom::Int(3)));
    assert!(k.has_bat("words"));
}

#[test]
fn a_parameter_beyond_those_given_is_an_eval_error() {
    let k = kernel();
    let run = |text: &str, params: &[Atom]| {
        let program = k.prepare(text).unwrap();
        k.eval_prepared(&program, params, &ExecBudget::unlimited(), &[])
    };
    for (text, given) in [("RETURN $0;", 0), ("RETURN $1 + $0;", 1), ("RETURN $7;", 3)] {
        let params = vec![Atom::Int(1); given];
        assert!(
            matches!(run(text, &params), Err(MonetError::Eval(_))),
            "{text} with {given}"
        );
    }
    // Unbound but never read: no error, as a literal there would raise none.
    let dead = "IF (false) { RETURN $9; } RETURN 1;";
    assert_eq!(run(dead, &[]).unwrap(), MilValue::Atom(Atom::Int(1)));
}

#[test]
fn every_evaluation_counts_and_only_prepare_parses() {
    let k = kernel();
    let m = k.metrics();
    let program = k
        .prepare("RETURN bat(\"words\").select($0).count;")
        .unwrap();
    let (parses, evals) = (m.mil_parses.get(), m.mil_evals.get());
    for i in 20..34 {
        k.eval_prepared(&program, &[atom(i)], &ExecBudget::unlimited(), &[])
            .unwrap();
    }
    assert_eq!(m.mil_parses.get() - parses, 0);
    assert_eq!(m.mil_evals.get() - evals, 14);
    assert_eq!(m.mil_eval_ns.count(), 14);
    k.eval_mil("RETURN 1;").unwrap();
    assert_eq!((m.mil_parses.get(), m.mil_evals.get()), (2, 15));
}
