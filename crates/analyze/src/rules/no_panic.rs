//! `no-panic-path`: the serve request path must answer typed faults,
//! never die. Scoped to the files listed in
//! [`crate::PANIC_PATH_SCOPE`].

use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::source::SourceFile;

/// Rule name.
pub const NAME: &str = "no-panic-path";

/// Macros that panic by construction.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Keywords the lexer reports as identifiers but that never name an
/// indexable value, so a `[` after them opens a type, array or pattern
/// (`&mut [u8]`, `for x in [1, 2]`, `return [a, b]`). `self` and
/// `await` are left out: `self[i]` and `fut.await[i]` do index.
const NON_INDEXABLE_KEYWORDS: &[&str] = &[
    "as", "async", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "false",
    "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "static", "struct", "super", "trait", "true", "type", "unsafe", "use", "where",
    "while", "yield",
];

/// Checks one in-scope file for panic-capable constructs outside
/// test regions and suppressions.
pub fn check(file: &SourceFile) -> Vec<Diagnostic> {
    let toks = &file.tokens;
    let mut diags = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if file.in_test_region(t.line) {
            continue;
        }
        let next = toks.get(i + 1).map(|n| n.text.as_str());
        let prev = i.checked_sub(1).map(|p| &toks[p]);

        let finding = if t.kind == TokKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && prev.is_some_and(|p| p.text == ".")
            && next == Some("(")
        {
            Some(format!(
                "`.{}()` on the serve path can panic; return a typed fault instead",
                t.text
            ))
        } else if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && next == Some("!")
            // A `:` before the name means a path segment like
            // `std::panic::…` (e.g. `panic::catch_unwind`), not the
            // macro (`::` lexes as two `:` puncts).
            && prev.is_none_or(|p| p.text != ":")
        {
            Some(format!(
                "`{}!` on the serve path kills the thread; queue a fault frame instead",
                t.text
            ))
        } else if t.text == "["
            && prev.is_some_and(|p| {
                (p.kind == TokKind::Ident && !NON_INDEXABLE_KEYWORDS.contains(&p.text.as_str()))
                    || p.text == ")"
                    || p.text == "]"
            })
        {
            Some(
                "slice index can panic on the serve path; use `.get(..)` or prove the bound \
                 and add `analyze::allow(no-panic-path): <why>`"
                    .to_string(),
            )
        } else {
            None
        };

        if let Some(message) = finding {
            if !file.suppressed(NAME, t.line) {
                diags.push(Diagnostic::new(NAME, file.path_str(), t.line, message));
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse("crates/serve/src/engine.rs", src)
    }

    #[test]
    fn unwrap_expect_and_panic_macros_are_flagged() {
        let src = "fn f() {\n    x.unwrap();\n    y.expect(\"m\");\n    panic!(\"boom\");\n    unreachable!();\n}\n";
        let diags = check(&parse(src));
        assert_eq!(diags.len(), 4);
        assert_eq!(diags[0].line, 2);
        assert_eq!(diags[1].line, 3);
        assert_eq!(diags[2].line, 4);
        assert_eq!(diags[3].line, 5);
        assert!(diags.iter().all(|d| d.rule == NAME));
    }

    #[test]
    fn slice_indexing_is_flagged_but_types_and_attrs_are_not() {
        let src = "#[derive(Debug)]\nstruct S { a: [u8; 4] }\nfn f(b: &[u8], out: &mut [u8]) -> u8 {\n    let x = [1, 2];\n    for y in [1, 2] {}\n    b[0]\n}\n";
        let diags = check(&parse(src));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 6);
    }

    #[test]
    fn test_regions_are_exempt() {
        let src =
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); v[0]; panic!(); }\n}\n";
        assert!(check(&parse(src)).is_empty());
    }

    #[test]
    fn allow_with_reason_suppresses_without_reason_does_not() {
        let with = "fn f(b: &[u8; 2]) {\n    // analyze::allow(no-panic-path): array length is 2 by type\n    let x = b[0];\n}\n";
        assert!(check(&parse(with)).is_empty());
        let without =
            "fn f(b: &[u8; 2]) {\n    // analyze::allow(no-panic-path)\n    let x = b[0];\n}\n";
        assert_eq!(check(&parse(without)).len(), 1);
    }

    #[test]
    fn trailing_same_line_allow_suppresses() {
        let src = "fn f(v: &[u8]) {\n    let x = v[0]; // analyze::allow(no-panic-path): caller checked non-empty\n}\n";
        assert!(check(&parse(src)).is_empty());
    }

    #[test]
    fn panic_path_segments_are_not_macro_calls() {
        let src = "fn f() {\n    let h = std::panic::take_hook();\n}\n";
        assert!(check(&parse(src)).is_empty());
    }
}
