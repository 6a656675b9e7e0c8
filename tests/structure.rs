//! The repository's structural rules, as tests: each reads source files
//! by the same rule the shell step it replaced read them with.
//!
//! A file's non-test part is its lines before the first `#[cfg(test)]`.
//!
//! ```text
//! cargo test -q --test structure
//! ```

use std::path::Path;

/// The lines of `path` (from the repository root) before its first
/// `#[cfg(test)]`.
fn non_test(path: &str) -> Vec<String> {
    let file = Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    let text = std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("{path}: {e}"));
    text.lines()
        .take_while(|line| !line.contains("#[cfg(test)]"))
        .map(str::to_owned)
        .collect()
}

/// The item that starts at the first line beginning with `signature`,
/// through the first line after it that closes an item (`}` in column
/// one); empty when no line begins so.
fn item<'a>(lines: &'a [String], signature: &str) -> &'a [String] {
    let Some(start) = lines.iter().position(|line| line.starts_with(signature)) else {
        return &[];
    };
    let end = lines[start..]
        .iter()
        .position(|line| line.starts_with('}'))
        .map_or(lines.len(), |at| start + at + 1);
    &lines[start..end]
}

/// One encode per answer: a result-cache entry stores its segment list
/// when it is made, and every reply written from cache entries copies
/// that list (`write_answered` in `crates/core/src/json.rs`), so a hit
/// encodes no row. Its non-test body exists and calls no
/// `write_segments(`.
#[test]
fn one_encode_per_answer() {
    let json = non_test("crates/core/src/json.rs");
    let body = item(&json, "pub fn write_answered(");
    let lines = body.iter().filter(|line| !line.is_empty()).count();
    let encodes: usize = body
        .iter()
        .map(|line| line.matches("write_segments(").count())
        .sum();
    assert!(
        lines > 0 && encodes == 0,
        "write_answered in crates/core/src/json.rs must exist and copy stored segment lists, \
         never call write_segments( (found {lines} lines and {encodes} calls)"
    );
}
