//! `unsafe-ledger`: every `unsafe` site carries a `// SAFETY:` comment
//! and matches an audited entry in `analysis/unsafe_ledger.toml`.

use std::collections::HashSet;

use crate::diag::Diagnostic;
use crate::hash::hash_token_texts;
use crate::lexer::TokKind;
use crate::source::SourceFile;

/// Rule name.
pub const NAME: &str = "unsafe-ledger";

/// How many lines above an `unsafe` token a `SAFETY` comment may end.
const SAFETY_WINDOW: usize = 5;

/// One discovered `unsafe` site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// `/`-separated path relative to the analysis root.
    pub file: String,
    /// 1-based line of the `unsafe` token.
    pub line: usize,
    /// `fnv64:…` hash of the site's token stream.
    pub hash: String,
    /// First few tokens after `unsafe`, for human context in the ledger.
    pub context: String,
}

/// Finds every top-level `unsafe` site in `file`.
///
/// A site's extent runs from the `unsafe` token to the matching `}` of
/// the first `{` after it (or a `;` for brace-less declarations; a `;`
/// inside parentheses or brackets, as in an array type `[T; N]`, ends
/// nothing). Inner `unsafe {}` blocks inside an outer unsafe fn are
/// part of the outer site, not separate entries — the outer hash
/// already pins their content.
pub fn sites(file: &SourceFile) -> Vec<Site> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "unsafe") {
            i += 1;
            continue;
        }
        let line = toks[i].line;
        // Walk to the extent terminator: the close of the first brace
        // block, or a top-level `;` (e.g. an unsafe fn declared in a
        // trait).
        let mut j = i + 1;
        let mut close = toks.len() - 1;
        let mut nesting = 0usize;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "{" => {
                    close = file.matching_close(j).unwrap_or(toks.len() - 1);
                    break;
                }
                ";" if nesting == 0 => {
                    close = j;
                    break;
                }
                "(" | "[" => nesting += 1,
                ")" | "]" => nesting = nesting.saturating_sub(1),
                _ => {}
            }
            j += 1;
        }
        let hash = hash_token_texts(toks[i..=close].iter().map(|t| t.text.as_str()));
        let context = toks[i..toks.len().min(i + 7)]
            .iter()
            .map(|t| t.text.as_str())
            .collect::<Vec<_>>()
            .join(" ");
        out.push(Site {
            file: file.path_str(),
            line,
            hash,
            context,
        });
        i = close + 1;
    }
    out
}

/// Checks `file`'s unsafe sites against the ledger key set
/// `(file, hash)`, returning diagnostics and the sites found.
pub fn check(
    file: &SourceFile,
    ledger: &HashSet<(String, String)>,
) -> (Vec<Site>, Vec<Diagnostic>) {
    let found = sites(file);
    let mut diags = Vec::new();
    for site in &found {
        // `// SAFETY:` for blocks, `# Safety` doc sections for unsafe
        // fns — both count.
        let has_safety = file
            .comments_touching(site.line.saturating_sub(SAFETY_WINDOW), site.line)
            .any(|c| c.text.to_ascii_lowercase().contains("safety"));
        if !has_safety {
            diags.push(Diagnostic::new(
                NAME,
                &site.file,
                site.line,
                format!(
                    "unsafe site `{}` has no `// SAFETY:` comment within {SAFETY_WINDOW} lines",
                    site.context
                ),
            ));
        }
        if !ledger.contains(&(site.file.clone(), site.hash.clone())) {
            diags.push(Diagnostic::new(
                NAME,
                &site.file,
                site.line,
                format!(
                    "unsafe site is not in analysis/unsafe_ledger.toml (new or edited; hash {}); \
                     re-audit and regenerate with `--emit-ledger`",
                    site.hash
                ),
            ));
        }
    }
    (found, diags)
}

/// Flags ledger entries whose site no longer exists anywhere in the
/// scanned tree (stale audits must be deleted, not hoarded).
pub fn stale_entries(
    ledger: &[(String, String, String)],
    found: &HashSet<(String, String)>,
) -> Vec<Diagnostic> {
    ledger
        .iter()
        .filter(|(file, hash, _)| !found.contains(&(file.clone(), hash.clone())))
        .map(|(file, hash, context)| {
            Diagnostic::new(
                NAME,
                "analysis/unsafe_ledger.toml",
                0,
                format!(
                    "stale ledger entry for {file} (hash {hash}, `{context}`): \
                     the unsafe site was removed or edited; delete or regenerate the entry"
                ),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse("crates/core/src/x.rs", src)
    }

    #[test]
    fn block_impl_and_fn_sites_are_found_with_extents() {
        let src = "\
// SAFETY: fine
unsafe impl Send for X {}
fn f() {
    // SAFETY: fine
    let y = unsafe { g() };
}
// SAFETY: fine
unsafe fn h() { unsafe { inner() } }
";
        let f = parse(src);
        let s = sites(&f);
        assert_eq!(s.len(), 3, "inner unsafe must fold into the unsafe fn site");
        assert_eq!(s[0].line, 2);
        assert_eq!(s[1].line, 5);
        assert_eq!(s[2].line, 8);
    }

    #[test]
    fn array_types_in_a_signature_do_not_end_the_site() {
        let src = "\
// SAFETY: fine
unsafe fn h<const R: usize>(rows: [&[f64]; R]) -> [f64; R] {
    assert!(ok(rows));
    // SAFETY: fine
    unsafe { inner() }
}
trait T {
    // SAFETY: fine
    unsafe fn d(x: [u8; 4]);
    fn e();
}
";
        let f = parse(src);
        let s = sites(&f);
        assert_eq!(s.len(), 2, "inner unsafe must fold into the unsafe fn site");
        assert_eq!((s[0].line, s[1].line), (2, 9));
        // The fn site's hash covers its body, not just the signature.
        let edited = parse(&src.replace("assert!(ok(rows));", ""));
        assert_ne!(sites(&edited)[0].hash, s[0].hash);
        // The trait declaration ends at its own `;`.
        assert!(s[1].context.starts_with("unsafe fn d"));
        let renamed = parse(&src.replace("fn e()", "fn g()"));
        assert_eq!(sites(&renamed)[1].hash, s[1].hash);
    }

    #[test]
    fn missing_safety_comment_is_reported() {
        let f = parse("fn f() {\n    let y = unsafe { g() };\n}\n");
        let (found, diags) = check(&f, &HashSet::new());
        assert_eq!(found.len(), 1);
        // Two findings: no SAFETY, and not in the (empty) ledger.
        assert_eq!(diags.len(), 2);
        assert!(diags[0].message.contains("SAFETY"));
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn ledgered_site_with_safety_is_clean() {
        let f = parse("// SAFETY: g is sound here\nlet y = unsafe { g() };\n");
        let found = sites(&f);
        let ledger: HashSet<_> = found
            .iter()
            .map(|s| (s.file.clone(), s.hash.clone()))
            .collect();
        let (_, diags) = check(&f, &ledger);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn edited_site_changes_hash_and_fails_the_ledger() {
        let original = parse("// SAFETY: ok\nlet y = unsafe { g() };\n");
        let ledger: HashSet<_> = sites(&original)
            .iter()
            .map(|s| (s.file.clone(), s.hash.clone()))
            .collect();
        let edited = parse("// SAFETY: ok\nlet y = unsafe { g_v2() };\n");
        let (_, diags) = check(&edited, &ledger);
        assert_eq!(diags.len(), 1);
        assert!(diags[0]
            .message
            .contains("not in analysis/unsafe_ledger.toml"));
    }

    #[test]
    fn reformatting_does_not_change_the_hash() {
        let a = sites(&parse("// SAFETY: ok\nlet y = unsafe { g( 1 ) };\n"));
        let b = sites(&parse(
            "// SAFETY: ok\nlet y = unsafe {\n    // now with a comment\n    g(1)\n};\n",
        ));
        assert_eq!(a[0].hash, b[0].hash);
    }

    #[test]
    fn stale_entries_are_flagged() {
        let ledger = vec![(
            "crates/core/src/gone.rs".to_string(),
            "fnv64:dead".to_string(),
            "unsafe { old }".to_string(),
        )];
        let diags = stale_entries(&ledger, &HashSet::new());
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("stale ledger entry"));
    }
}
