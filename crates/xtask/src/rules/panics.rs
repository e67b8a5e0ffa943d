//! Rule `panic`: engine code must not panic on recoverable conditions.
//!
//! `crates/ppsim/src/` routes fallible construction and stepping through the
//! typed `SimError` (`try_new`, `try_run_until`, ..). Bare `.unwrap()`,
//! `.expect(..)`, and `panic!(..)` in non-test code in that tree bypass that
//! contract (poisoned-lock recovery uses
//! `unwrap_or_else(|p| p.into_inner())`, which this rule deliberately does
//! not match). The few legitimate sites —
//! documented panicking wrappers whose messages are pinned by
//! `#[should_panic]` tests, and invariants proven by construction — carry
//! explicit waivers.

use super::{text_at, Finding};
use crate::source::SourceFile;

/// The trees held to the no-panic contract: the ppsim engine.
const SCOPE: &[&str] = &["crates/ppsim/src/"];

/// Runs this rule over `file`, appending findings.
pub fn check(file: &SourceFile, findings: &mut Vec<Finding>) {
    if !SCOPE.iter().any(|p| file.rel.starts_with(p)) {
        return;
    }
    let tokens = &file.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if file.is_test_line(t.line) {
            continue;
        }
        let what = if t.text == "panic" && text_at(tokens, i + 1) == "!" {
            Some("`panic!`")
        } else if t.text == "."
            && matches!(text_at(tokens, i + 1), "unwrap" | "expect")
            && text_at(tokens, i + 2) == "("
        {
            Some(if text_at(tokens, i + 1) == "unwrap" {
                "`.unwrap()`"
            } else {
                "`.expect(..)`"
            })
        } else {
            None
        };
        if let Some(what) = what {
            findings.push(Finding {
                rule: "panic",
                rel: file.rel.clone(),
                line: t.line,
                message: format!(
                    "{what} in no-panic scope: route errors through the typed error \
                     (SimError), or waive with a reason"
                ),
            });
        }
    }
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
    fn unwrap_expect_panic_flagged_in_engine_code() {
        let src = "fn f(x: Option<u32>) -> u32 {\n  let a = x.unwrap();\n  let b = \
                   x.expect(\"b\");\n  if a == b { panic!(\"no\"); }\n  a\n}\n";
        let f = lint("crates/ppsim/src/batched.rs", src);
        assert_eq!(f.len(), 3, "{f:?}");
        assert_eq!(f.iter().map(|f| f.line).collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    fn tests_and_other_crates_are_out_of_scope() {
        let src = "#[test]\nfn t() {\n  x.unwrap();\n}\n";
        assert!(lint("crates/ppsim/src/engine.rs", src).is_empty());
        let src2 = "fn f() { x.unwrap(); }\n";
        assert!(lint("crates/ssle-core/src/adversary.rs", src2).is_empty());
    }

    #[test]
    fn poisoned_lock_recovery_is_not_a_finding() {
        let recover = "fn f() { let g = m.lock().unwrap_or_else(|p| p.into_inner()); }\n";
        assert!(lint("crates/ppsim/src/fleet.rs", recover).is_empty());
        let bare = "fn f() { let g = m.lock().unwrap(); }\n";
        assert_eq!(lint("crates/ppsim/src/fleet.rs", bare).len(), 1);
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let src = "fn f() -> u32 { x.unwrap_or_else(|| 0) }\n";
        assert!(lint("crates/ppsim/src/engine.rs", src).is_empty());
    }
}
