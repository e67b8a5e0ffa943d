//! Rule `determinism`: no iteration-order or ambient-environment
//! nondeterminism in the simulation crates.
//!
//! Two sub-checks:
//!
//! 1. **Hash-map iteration.** `HashMap`/`HashSet` iteration order varies per
//!    process (`RandomState`), so iterating one — in production *or* test
//!    code — can silently make results or assertions order-dependent. The
//!    check tracks bindings whose initializer or type annotation names
//!    `HashMap`/`HashSet` and flags iteration over them (`.iter()`,
//!    `.keys()`, `.values()`, `.drain()`, `for .. in ..`, and friends).
//!    Lookups (`get`, `insert`, `contains_key`, `len`, ..) are fine.
//!    Order-sensitive iterations should move to `BTreeMap`/`BTreeSet` or
//!    sort first; genuinely order-insensitive ones (e.g. folding with a
//!    commutative reduction) may carry a waiver explaining why.
//!
//! 2. **Ambient time/env reads.** `Instant::now`, `SystemTime::now`, and
//!    `std::env` reads make library behaviour depend on the machine rather
//!    than the seed. They are confined to the approved timing/config
//!    modules (`crates/analysis/src/experiments/`, `crates/bench/`);
//!    anywhere else in non-test code is a finding.

use super::{seq_at, text_at, Finding};
use crate::lexer::Token;
use crate::source::SourceFile;

/// Crates whose code (including tests) is checked for hash-map iteration.
const MAP_SCOPE: &[&str] = &[
    "crates/ppsim/",
    "crates/ssle-core/",
    "crates/baselines/",
    "crates/analysis/",
];

/// Modules approved to read wall clocks and the environment.
///
/// `crates/ppsim/src/telemetry/clock.rs` is the **one** sanctioned clock
/// site inside `ppsim`: every engine timing probe funnels through it, and
/// its readings feed observability only (the telemetry timing stream) —
/// never RNG streams or control flow.
const TIME_ENV_ALLOWED: &[&str] = &[
    "crates/analysis/src/experiments/",
    "crates/bench/",
    "crates/ppsim/src/telemetry/clock.rs",
];

/// Methods that observe a map in iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Runs this rule over `file`, appending findings.
pub fn check(file: &SourceFile, findings: &mut Vec<Finding>) {
    if MAP_SCOPE.iter().any(|p| file.rel.starts_with(p)) {
        check_map_iteration(file, findings);
    }
    check_time_env(file, findings);
}

fn check_map_iteration(file: &SourceFile, findings: &mut Vec<Finding>) {
    let tokens = &file.tokens;
    let names = hash_map_bindings(tokens);
    if names.is_empty() {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        // `name.iter()` / `name.values()` / ..
        if names.iter().any(|n| n == &t.text)
            && text_at(tokens, i + 1) == "."
            && ITER_METHODS.contains(&text_at(tokens, i + 2))
            && text_at(tokens, i + 3) == "("
        {
            findings.push(Finding {
                rule: "determinism",
                rel: file.rel.clone(),
                line: t.line,
                message: format!(
                    "iteration over hash map/set `{}` (`.{}()`): order is nondeterministic; \
                     use BTreeMap/BTreeSet or sort, or waive with a reason",
                    t.text,
                    text_at(tokens, i + 2),
                ),
            });
        }
        // `for pat in [&][mut] name [{ ... }]`
        if t.text == "for" {
            if let Some((name, line)) = for_loop_over(tokens, i, &names) {
                findings.push(Finding {
                    rule: "determinism",
                    rel: file.rel.clone(),
                    line,
                    message: format!(
                        "`for .. in {name}` iterates a hash map/set in nondeterministic \
                         order; use BTreeMap/BTreeSet or sort, or waive with a reason"
                    ),
                });
            }
        }
    }
}

/// Collects binding names annotated or initialized as `HashMap`/`HashSet`
/// (with or without a `std::collections::` path prefix).
fn hash_map_bindings(tokens: &[Token]) -> Vec<String> {
    let mut names = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.text != "HashMap" && t.text != "HashSet" {
            continue;
        }
        // Walk back over a `path ::` prefix (e.g. `std :: collections ::`)
        // and reference qualifiers (`& mut HashMap`).
        let mut j = i;
        while j >= 2 && tokens[j - 1].text == "::" {
            j -= 2;
        }
        while j >= 1 && matches!(tokens[j - 1].text.as_str(), "&" | "mut") {
            j -= 1;
        }
        // `name : HashMap<..>` (annotation) or `name = HashMap::new()`
        // (initializer; also covers `name = HashMap::with_capacity(..)`).
        if j >= 2 && matches!(tokens[j - 1].text.as_str(), ":" | "=") {
            let name = &tokens[j - 2].text;
            if is_ident(name) && !names.iter().any(|n| n == name) {
                names.push(name.clone());
            }
        }
    }
    names
}

/// If the `for` loop at token `i` iterates one of `names` (directly or by
/// reference), returns that name and the loop's line.
fn for_loop_over(tokens: &[Token], i: usize, names: &[String]) -> Option<(String, u32)> {
    // Find the `in` keyword at bracket depth zero, then the loop body `{`.
    let mut depth = 0i32;
    let mut j = i + 1;
    let in_pos = loop {
        match text_at(tokens, j) {
            "" => return None,
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "in" if depth == 0 => break j,
            "{" if depth == 0 => return None,
            _ => {}
        }
        j += 1;
    };
    // Accept `name`, `& name`, `& mut name` as the full iterated expression
    // (a following `.` means a method call decides the real iterator, which
    // the method check handles; `name` mid-expression is a lookup).
    let mut k = in_pos + 1;
    while matches!(text_at(tokens, k), "&" | "mut") {
        k += 1;
    }
    let name = text_at(tokens, k);
    if names.iter().any(|n| n == name) && text_at(tokens, k + 1) == "{" {
        return Some((name.to_string(), tokens[k].line));
    }
    None
}

fn check_time_env(file: &SourceFile, findings: &mut Vec<Finding>) {
    if TIME_ENV_ALLOWED.iter().any(|p| file.rel.starts_with(p)) {
        return;
    }
    let tokens = &file.tokens;
    for i in 0..tokens.len() {
        let line = tokens[i].line;
        if file.is_test_line(line) {
            continue;
        }
        let clock = (seq_at(tokens, i, &["Instant", "::", "now"])
            || seq_at(tokens, i, &["SystemTime", "::", "now"]))
        .then(|| format!("`{}::now()`", tokens[i].text));
        let env = (tokens[i].text == "env"
            && text_at(tokens, i + 1) == "::"
            && matches!(
                text_at(tokens, i + 2),
                "var" | "var_os" | "vars" | "vars_os" | "args" | "args_os"
            ))
        .then(|| format!("`env::{}`", text_at(tokens, i + 2)));
        if let Some(what) = clock.or(env) {
            findings.push(Finding {
                rule: "determinism",
                rel: file.rel.clone(),
                line,
                message: format!(
                    "{what} read outside the approved timing/config modules: library \
                     behaviour must depend only on explicit inputs and seeds"
                ),
            });
        }
    }
}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next().is_some_and(|c| c.is_alphabetic() || c == '_')
        && chars.all(|c| c.is_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn lint(rel: &str, src: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        check(&SourceFile::new(rel, src), &mut out);
        out
    }

    #[test]
    fn hash_map_iteration_is_flagged_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n  fn t() {\n    let mut counts = \
                   std::collections::HashMap::new();\n    for (k, v) in &counts {\n      \
                   use_it(k, v);\n    }\n  }\n}\n";
        let f = lint("crates/ssle-core/src/adversary.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn map_lookups_and_btreemap_are_clean() {
        let src = "fn f() {\n  let mut counts: HashMap<u32, u32> = HashMap::new();\n  \
                   counts.insert(1, 2);\n  let _ = counts.get(&1);\n  let mut b = \
                   BTreeMap::new();\n  for (k, v) in &b { go(k, v); }\n  b.insert(0, 0);\n}\n";
        assert!(lint("crates/ppsim/src/engine.rs", src).is_empty());
    }

    #[test]
    fn values_method_is_flagged() {
        let src = "fn f() {\n  let counts: HashMap<u64, u64> = make();\n  let n: u64 = \
                   counts.values().sum();\n}\n";
        let f = lint("crates/ssle-core/src/verify.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn reference_typed_params_are_tracked() {
        let src = "pub fn total(ranks: &HashMap<u64, u64>) -> u64 {\n  ranks.values().sum()\n}\n";
        let f = lint("crates/ssle-core/src/verify.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn clocks_flagged_outside_approved_modules_only() {
        let src = "fn f() {\n  let t = Instant::now();\n}\n";
        assert_eq!(lint("crates/ppsim/src/engine.rs", src).len(), 1);
        assert!(lint("crates/analysis/src/experiments/scaling.rs", src).is_empty());
    }

    #[test]
    fn telemetry_clock_is_the_one_sanctioned_ppsim_site() {
        let src = "pub fn now_ns() -> u64 {\n  let t = Instant::now();\n  0\n}\n";
        // The clock module itself is allowlisted…
        assert!(lint("crates/ppsim/src/telemetry/clock.rs", src).is_empty());
        // …but nothing else under ppsim is, the rest of telemetry included.
        assert_eq!(lint("crates/ppsim/src/telemetry/mod.rs", src).len(), 1);
        assert_eq!(lint("crates/ppsim/src/multibatch.rs", src).len(), 1);
    }

    #[test]
    fn env_reads_flagged_in_non_test_code() {
        let src = "fn f() {\n  let v = std::env::var(\"X\");\n}\n\
                   #[cfg(test)]\nmod tests {\n  fn t() { let _ = std::env::var(\"Y\"); }\n}\n";
        let f = lint("vendor/rayon/src/lib.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
    }
}
