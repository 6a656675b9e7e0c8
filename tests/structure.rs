//! The repository's structural rules, one test each, and the diet
//! report. A file's non-test part is its lines before the first
//! `#[cfg(test)]`, and none of a module declared under `#[cfg(test)]`;
//! a rule counts matching lines, as `grep -c` does.
//!
//! ```text
//! cargo test -q --test structure
//! cargo test -q --test structure diet -- --nocapture
//! ```

use std::fs;
use std::path::Path;

/// How many lines a rule allows.
type Range = std::ops::RangeInclusive<usize>;

/// `path` from the repository root.
fn at(path: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(path)
}

/// The lines of `path`.
fn read(path: &str) -> Vec<String> {
    let text = fs::read_to_string(at(path));
    let text = text.unwrap_or_else(|e| panic!("{path}: {e}"));
    text.lines().map(str::to_owned).collect()
}

/// The lines of `path` before its first `#[cfg(test)]`; none when its
/// parent declares it under `#[cfg(test)]` (`router.rs`'s `mod tests;`).
fn non_test(path: &str) -> Vec<String> {
    let (dir, name) = path.rsplit_once('/').unwrap_or(("", path));
    let (dir, name) = match name.trim_end_matches(".rs") {
        "mod" => dir.rsplit_once('/').unwrap_or(("", dir)),
        name => (dir, name),
    };
    let decl = format!("mod {name};");
    let parents = ["", "/mod", "/lib", "/main"].map(|p| at(&format!("{dir}{p}.rs")));
    let test_module = parents.iter().any(|parent| {
        let text = fs::read_to_string(parent).unwrap_or_default();
        text.split("#[cfg(test)]").skip(1).any(|after| {
            let after = after.trim_start();
            past_pub(after).unwrap_or(after).starts_with(&decl)
        })
    });
    let lines = if test_module { Vec::new() } else { read(path) };
    let end = lines.iter().position(|l| l.contains("#[cfg(test)]"));
    lines[..end.unwrap_or(lines.len())].to_vec()
}

/// The files the space-separated `patterns` match, sorted: a segment
/// holds at most one `*`, and `**` stands for any number of directories.
/// A pattern matching no file panics, so no rule passes over nothing.
fn files(patterns: &str) -> Vec<String> {
    fn walk(dir: &str, glob: &[&str], out: &mut Vec<String>) {
        let Some((&first, rest)) = glob.split_first() else {
            return;
        };
        for entry in fs::read_dir(at(dir)).into_iter().flatten().flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let path = format!("{dir}/{name}").trim_start_matches('/').to_owned();
            let matched = first.split_once('*').map_or(name == first, |(head, tail)| {
                name.strip_prefix(head).is_some_and(|r| r.ends_with(tail))
            });
            let is_dir = entry.path().is_dir();
            match (first == "**" || matched, rest.is_empty(), is_dir) {
                (true, _, true) if first == "**" => walk(&path, glob, out),
                (true, true, false) => out.push(path),
                (true, false, true) => walk(&path, rest, out),
                _ => {}
            }
        }
        if first == "**" {
            walk(dir, rest, out);
        }
    }
    let mut out = Vec::new();
    for pattern in patterns.split_whitespace() {
        let before = out.len();
        walk("", &pattern.split('/').collect::<Vec<_>>(), &mut out);
        assert!(out.len() > before, "{pattern} matches no file");
    }
    out.sort();
    out
}

/// The non-test lines of every file `patterns` match.
fn non_test_of(patterns: &str) -> Vec<String> {
    files(patterns).iter().flat_map(|f| non_test(f)).collect()
}

/// Asserts that the number of `lines` that `matches` lies in `allowed`,
/// naming `what` and the lines found when it does not.
fn allow(what: &str, lines: &[String], allowed: Range, matches: impl Fn(&str) -> bool) {
    let found: Vec<_> = lines.iter().filter(|l| matches(l)).collect();
    let ok = allowed.contains(&found.len());
    assert!(ok, "{what}: allowed {allowed:?}, found {found:#?}");
}

/// [`allow`] for the lines that hold one of the `|`-separated `needles`.
fn allow_any(lines: &[String], needles: &str, allowed: Range) {
    let any = |l: &str| needles.split('|').any(|n| l.contains(n));
    allow(needles, lines, allowed, any)
}

/// Whether `s` starts with a word character.
fn word_at(s: &str) -> bool {
    s.starts_with(|c: char| c.is_alphanumeric() || c == '_')
}

/// `s` past a leading `pub ` or `pub(<a-z>+) `.
fn past_pub(s: &str) -> Option<&str> {
    let rest = s.strip_prefix("pub")?;
    let scoped = rest.strip_prefix('(').and_then(|r| r.split_once(')'));
    let rest = match scoped {
        Some((scope, r)) if !scope.is_empty() && scope.bytes().all(|b| b.is_ascii_lowercase()) => r,
        _ => rest,
    };
    rest.strip_prefix(' ')
}

/// The `[a-z_]+` name `s` starts with, when a `(` follows it.
fn called(s: &str) -> Option<&str> {
    let (name, _) = s.split_once('(')?;
    let lower = |b: u8| b.is_ascii_lowercase() || b == b'_';
    (!name.is_empty() && name.bytes().all(lower)).then_some(name)
}

/// Panic-free core paths: no `.unwrap()` / `.expect(` in the non-test
/// code of the core crates (`self.expect(`, the MIL parser's helper, and
/// `//!` lines excused; a lock recovers through `cobra_faults::Recover`),
/// and at most eight panicking macros there and in the rule engine,
/// comment lines excused. Never raise either baseline.
#[test]
fn panic_free_core_paths() {
    let mut lines = non_test_of(
        "crates/core/src/*.rs crates/moa/src/*.rs crates/monet/src/*.rs \
         crates/monet/src/mil/*.rs crates/monet/src/ops/*.rs crates/serve/src/*.rs \
         crates/serve/src/bin/*.rs crates/store/src/*.rs",
    );
    allow(".unwrap()|.expect(", &lines, 0..=0, |l| {
        let excused = l.contains("self.expect(") || l.starts_with("//!");
        (l.contains(".unwrap()") || l.contains(".expect(")) && !excused
    });
    lines.extend(non_test_of("crates/rules/src/*.rs"));
    let macros = ["assert", "assert_eq", "assert_ne", "panic", "unreachable"];
    allow("panicking macros", &lines, 0..=8, |l| {
        let named = |(at, _)| !l[..at].ends_with(|c: char| c.is_ascii_lowercase() || c == '_');
        let called = |m: &&str| l.match_indices(&format!("{m}!")).any(named);
        macros.iter().any(called) && !l.trim_start().starts_with("//")
    });
}

/// No god files: the largest non-test part of a file under the core
/// crates' `src`, a ratchet to lower when it shrinks, never to raise.
#[test]
fn no_god_files() {
    let sizes = files(
        "crates/core/src/**/*.rs crates/moa/src/**/*.rs crates/monet/src/**/*.rs \
         crates/serve/src/**/*.rs crates/store/src/**/*.rs",
    );
    let sizes = sizes.into_iter().map(|f| (non_test(&f).len(), f));
    let (lines, file) = sizes.max().unwrap_or_default();
    assert!(lines <= 1088, "{file}: {lines} non-test lines");
}

/// One timer in the reactor: the non-test part of `reactor.rs`, where
/// one deadline pass serves idle eviction and the close window, a
/// ratchet to lower when it shrinks, never to raise.
#[test]
fn one_reactor_timer() {
    let lines = non_test("crates/serve/src/reactor.rs").len();
    assert!(
        lines <= 991,
        "crates/serve/src/reactor.rs: {lines} non-test lines"
    );
}

/// One evaluator: a cold read binds its driver as a parameter of its
/// cached plan, so nothing rebinds a literal or compiles in `retrieve.rs`.
#[test]
fn one_evaluator() {
    let crates = non_test_of("crates/**/*.rs");
    allow_any(&crates, "with_eq_literal|rebind_eq|fn bound_mil", 0..=0);
    let retrieve = non_test("crates/core/src/retrieve.rs");
    allow_any(&retrieve, "f1_moa::compile(", 0..=0);
}

/// One implementation per operator: no `pub fn …_ctx(` twin in the
/// kernel, and no select-stack or join enumeration in the planner.
#[test]
fn one_implementation_per_operator() {
    let monet = non_test_of("crates/monet/src/**/*.rs");
    allow("pub fn …_ctx(", &monet, 0..=0, |l| {
        l.match_indices("pub").any(|(at, _)| {
            let name = past_pub(&l[at..]).and_then(|r| called(r.strip_prefix("fn ")?));
            name.is_some_and(|n| n.len() > 4 && n.ends_with("_ctx"))
        })
    });
    let moa = non_test_of("crates/moa/src/**/*.rs");
    let fns = ["fn peel_selects", "fn join_leaves", "fn associations"];
    allow("select/join enumerators", &moa, 0..=0, |l| {
        let whole = |f: &&str| l.match_indices(f).any(|(i, _)| !word_at(&l[i + f.len()..]));
        fns.iter().any(whole)
    });
}

/// The lines of the top-level item whose first line starts with
/// `signature`, to its closing `}`.
fn body<'a>(lines: &'a [String], signature: &str) -> &'a [String] {
    let start = lines.iter().position(|l| l.starts_with(signature));
    let body = &lines[start.unwrap_or_else(|| panic!("no {signature}"))..];
    let end = body.iter().position(|l| l.starts_with('}'));
    &body[..end.map_or(body.len(), |at| at + 1)]
}

/// One encode per answer: a reply from result-cache entries copies their
/// stored segments; `write_answered` (to its closing `}`) encodes none.
#[test]
fn one_encode_per_answer() {
    let json = non_test("crates/core/src/json.rs");
    allow_any(
        body(&json, "pub fn write_answered("),
        "write_segments(",
        0..=0,
    );
}

/// The reactor never waits on a shard: the router's half of a `query`
/// that runs on the reactor (`resolve`) checks out no connection set,
/// asks no shard and starts no feed.
#[test]
fn the_reactor_never_waits_on_a_shard() {
    let router = non_test("crates/serve/src/router.rs");
    let resolve = body(&router, "fn resolve(");
    let waits = "checkout(|scatter(|forward(|connect_shard(|ensure_feeds(";
    allow_any(resolve, waits, 0..=0);
}

/// One guard per answer: a retrieval is guarded by what its stages
/// read, never by the whole video's `video_stamp(`.
#[test]
fn one_guard_per_answer() {
    let retrieve = non_test("crates/core/src/retrieve.rs");
    allow("lines", &retrieve, 1..=usize::MAX, |l| !l.is_empty());
    allow_any(&retrieve, "video_stamp(", 0..=0);
}

/// One invalidation rule: `struct Changes` and `enum Read` are defined
/// once (test parts read too), and the router's scopes read the text.
#[test]
fn one_invalidation_rule() {
    let sources = files("crates/*/src/*.rs crates/*/src/*/*.rs");
    let all: Vec<String> = sources.iter().flat_map(|f| read(f)).collect();
    for item in ["struct Changes", "enum Read"] {
        allow(item, &all, 1..=1, |l| {
            let l = l.trim_start();
            let rest = past_pub(l).unwrap_or(l).strip_prefix(item);
            rest.is_some_and(|r| !word_at(r))
        });
    }
    let router = non_test("crates/serve/src/router.rs");
    allow_any(&router, "_text: Option<&str>", 0..=0);
}

/// One front door: the server and the router share one reactor
/// `Service` and one arm answering a refused pool submission.
#[test]
fn one_front_door() {
    let serve = non_test_of("crates/serve/src/*.rs crates/serve/src/*/*.rs");
    allow("impl Service for", &serve, 1..=1, |l| {
        let service = |r: &str| r.starts_with(" Service for ");
        let generic = |r: &str| r.match_indices('>').any(|(at, _)| service(&r[at + 1..]));
        let rest = l.trim_start_matches(' ').strip_prefix("impl");
        rest.is_some_and(|r| service(r) || r.starts_with('<') && generic(r))
    });
    allow("SubmitError::Overloaded arms", &serve, 1..=1, |l| {
        let rest = l.split_once("SubmitError::Overloaded");
        rest.is_some_and(|(_, r)| r.contains("=>"))
    });
}

/// One reply per pooled job: one `catch_unwind(`, in the scheduler; one
/// `try_submit(` call; and one `ctl.send(`, after `running.add(-1)`.
#[test]
fn one_reply_per_pooled_job() {
    let serve = non_test_of("crates/serve/src/*.rs crates/serve/src/*/*.rs");
    let sched = non_test("crates/serve/src/scheduler.rs");
    allow_any(&serve, "catch_unwind(", 1..=1);
    allow_any(&sched, "catch_unwind(", 1..=1);
    allow("try_submit( calls", &serve, 1..=1, |l| {
        l.contains("try_submit(") && !l.contains("fn try_submit(")
    });
    allow_any(&sched, "ctl.send(", 1..=1);
    let retired = sched.iter().position(|l| l.contains("running.add(-1)"));
    allow_any(&sched[retired.unwrap_or(sched.len())..], "ctl.send(", 1..=1);
}

/// One annotation path: no whole-video filter (`Posteriors`) and no
/// whole-trace segmentation in core, and the stepper has a caller.
#[test]
fn one_annotation_path() {
    let core = non_test_of("crates/core/src/*.rs");
    allow_any(&core, "Posteriors", 0..=0);
    allow_any(&core, "fn derive_events", 0..=0);
    allow_any(&core, ".stepper(", 1..=usize::MAX);
}

/// One extraction path: no method registry, cost model or ranked walk
/// between extractors, and core constructs a `FeatureExtractor` once.
#[test]
fn one_extraction_path() {
    let core = non_test_of("crates/core/src/*.rs");
    allow_any(&core, "MethodRegistry|CostModel|extract_ranked", 0..=0);
    allow("FeatureExtractor:: constructions", &core, 1..=1, |l| {
        let mut calls = l.split("FeatureExtractor::").skip(1);
        calls.any(|r| called(r).is_some())
    });
}

/// The diet report: Rust lines, the non-test ones outside `tests/`
/// directories, and those of `crates/*/src` declaring a public item.
#[test]
fn diet() {
    let all = files("crates/**/*.rs src/**/*.rs tests/**/*.rs examples/**/*.rs");
    let total: usize = all.iter().map(|f| read(f).len()).sum();
    let lib = |f: &&String| !(f.starts_with("tests/") || f.contains("/tests/"));
    let non_tests: usize = all.iter().filter(lib).map(|f| non_test(f).len()).sum();
    let src = files("crates/*/src/**/*.rs");
    let src: Vec<_> = src.iter().filter(lib).flat_map(|f| non_test(f)).collect();
    let items = src.iter().filter(|l| {
        let rest = l.trim_start().strip_prefix("pub ").unwrap_or_default();
        let kind = rest.split_once(char::is_whitespace).map(|(kind, _)| kind);
        "fn struct enum trait mod const type use"
            .split(' ')
            .any(|k| Some(k) == kind)
    });
    let items = items.count();
    println!("Rust lines under crates src tests examples: {total}; non-test: {non_tests}");
    println!("Public items under crates/*/src (non-test): {items}");
}
