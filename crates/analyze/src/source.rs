//! Workspace model: which `.rs` files exist, what role each plays, where
//! its `#[cfg(test)]` regions and waiver comments are.
//!
//! The walker follows the layout conventions of this repository (and of the
//! fixture mini-workspaces under `tests/fixtures/`): `src/`, `tests/*.rs`
//! and `examples/` for the root package, `crates/<name>/{src,tests}` for
//! member crates, `shims/<name>/src` for the vendored dependency shims.
//! Only files cargo actually compiles are walked — in particular
//! subdirectories of `tests/` (fixture corpora) are skipped.

use crate::lexer::{lex, Token, TokenKind};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The role a file plays in the workspace, which decides which rules and
/// exemptions apply to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library or binary source of a member crate (or the root package).
    Lib,
    /// An integration-test file (`tests/*.rs`).
    Test,
    /// A runnable example (`examples/*.rs`).
    Example,
    /// Vendored offline shim source (`shims/*/src`).
    Shim,
}

/// An inline waiver comment:
/// `// scope-analyze: allow(<rule>) — <reason>`.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// Rule name inside `allow(…)`.
    pub rule: String,
    /// Free-text justification after the dash. Empty reasons are rejected
    /// by the waiver-budget rule.
    pub reason: String,
    /// 1-based line of the comment. A waiver covers findings on its own
    /// line (trailing comment) and on the following line (comment-above).
    pub line: u32,
    /// Repo-relative path of the file the waiver sits in.
    pub file: String,
}

/// One lexed workspace file plus everything the rules need to know about
/// it.
#[derive(Debug)]
pub struct SourceFile {
    /// Repo-relative path with `/` separators.
    pub path: String,
    /// Package name owning the file (`scope`, `scope-cloudsim`, `rand`, …).
    pub crate_name: String,
    /// Role of the file.
    pub class: FileClass,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// Sorted token-index ranges `[start, end)` under `#[cfg(test)]` or
    /// `#[test]` items.
    pub test_regions: Vec<(usize, usize)>,
    /// Token-index ranges `[start, end)` inside `macro_rules!` bodies
    /// (templates, not real code — the test recount must skip them).
    pub macro_def_regions: Vec<(usize, usize)>,
    /// Waivers declared in this file.
    pub waivers: Vec<Waiver>,
}

impl SourceFile {
    /// Parse one file. `path` must be repo-relative.
    pub fn parse(path: String, crate_name: String, class: FileClass, source: &str) -> SourceFile {
        let tokens = lex(source);
        let test_regions = attribute_item_regions(&tokens);
        let macro_def_regions = macro_rules_regions(&tokens);
        let waivers = parse_waivers(&tokens, &path);
        SourceFile {
            path,
            crate_name,
            class,
            tokens,
            test_regions,
            macro_def_regions,
            waivers,
        }
    }

    /// True when token `i` is inside a `#[cfg(test)]` / `#[test]` item.
    pub fn in_test_region(&self, i: usize) -> bool {
        self.test_regions.iter().any(|&(s, e)| s <= i && i < e)
    }

    /// True when token `i` is inside a `macro_rules!` body.
    pub fn in_macro_def(&self, i: usize) -> bool {
        self.macro_def_regions.iter().any(|&(s, e)| s <= i && i < e)
    }

    /// True when the whole file is test code (integration tests) or the
    /// specific token is in a test region.
    pub fn is_test_code(&self, i: usize) -> bool {
        self.class == FileClass::Test || self.in_test_region(i)
    }
}

/// The loaded workspace: all files, in deterministic path order.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Repo root the workspace was loaded from.
    pub root: PathBuf,
    /// All lexed files keyed by repo-relative path (sorted).
    pub files: BTreeMap<String, SourceFile>,
}

impl Workspace {
    /// Load every compiled `.rs` file under `root` following the layout
    /// conventions described in the module docs.
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut ws = Workspace {
            root: root.to_path_buf(),
            files: BTreeMap::new(),
        };
        // Root package.
        ws.add_tree(root.join("src"), "scope", FileClass::Lib)?;
        ws.add_flat(root.join("tests"), "scope", FileClass::Test)?;
        ws.add_tree(root.join("examples"), "scope", FileClass::Example)?;
        // Member crates.
        for (dir, name) in sorted_subdirs(&root.join("crates"))? {
            let crate_name = format!("scope-{name}");
            ws.add_tree(dir.join("src"), &crate_name, FileClass::Lib)?;
            ws.add_flat(dir.join("tests"), &crate_name, FileClass::Test)?;
        }
        // Shims keep their upstream names.
        for (dir, name) in sorted_subdirs(&root.join("shims"))? {
            ws.add_tree(dir.join("src"), &name, FileClass::Shim)?;
        }
        Ok(ws)
    }

    /// Repo-relative display path for `path`.
    fn rel(&self, path: &Path) -> String {
        path.strip_prefix(&self.root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/")
    }

    fn add_file(&mut self, path: &Path, crate_name: &str, class: FileClass) -> std::io::Result<()> {
        let source = std::fs::read_to_string(path)?;
        let rel = self.rel(path);
        let file = SourceFile::parse(rel.clone(), crate_name.to_string(), class, &source);
        self.files.insert(rel, file);
        Ok(())
    }

    /// Add a directory tree of `.rs` files recursively.
    fn add_tree(
        &mut self,
        dir: PathBuf,
        crate_name: &str,
        class: FileClass,
    ) -> std::io::Result<()> {
        if !dir.is_dir() {
            return Ok(());
        }
        let mut stack = vec![dir];
        while let Some(d) = stack.pop() {
            for (sub, _) in sorted_subdirs(&d)? {
                stack.push(sub);
            }
            for entry in sorted_rs_files(&d)? {
                self.add_file(&entry, crate_name, class)?;
            }
        }
        Ok(())
    }

    /// Add only the top-level `.rs` files of a directory (how cargo
    /// discovers `tests/` targets — subdirectories such as fixture corpora
    /// are not compiled).
    fn add_flat(
        &mut self,
        dir: PathBuf,
        crate_name: &str,
        class: FileClass,
    ) -> std::io::Result<()> {
        if !dir.is_dir() {
            return Ok(());
        }
        for entry in sorted_rs_files(&dir)? {
            self.add_file(&entry, crate_name, class)?;
        }
        Ok(())
    }
}

fn sorted_subdirs(dir: &Path) -> std::io::Result<Vec<(PathBuf, String)>> {
    let mut out = Vec::new();
    if !dir.is_dir() {
        return Ok(out);
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_dir() {
            let name = entry.file_name().to_string_lossy().to_string();
            out.push((entry.path(), name));
        }
    }
    out.sort();
    Ok(out)
}

fn sorted_rs_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_file() && path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

/// Find `[start, end)` token ranges of items annotated `#[cfg(test)]` or
/// `#[test]`: the range starts at the attribute's `#` and ends after the
/// item's closing brace (or terminating `;`).
fn attribute_item_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if let Some(after_attr) = match_test_attribute(tokens, i) {
            let end = item_end(tokens, after_attr);
            regions.push((i, end));
            i = end;
        } else {
            i += 1;
        }
    }
    regions
}

/// If tokens at `i` start a `#[cfg(test)]` or `#[test]` attribute, return
/// the index just past the attribute's closing `]`.
fn match_test_attribute(tokens: &[Token], i: usize) -> Option<usize> {
    if !tokens.get(i)?.is_punct('#') || !tokens.get(i + 1)?.is_punct('[') {
        return None;
    }
    let inner = tokens.get(i + 2)?;
    let is_test = inner.is_ident("test") && tokens.get(i + 3)?.is_punct(']');
    let is_cfg_test = inner.is_ident("cfg")
        && tokens.get(i + 3)?.is_punct('(')
        && tokens.get(i + 4)?.is_ident("test")
        && tokens.get(i + 5)?.is_punct(')')
        && tokens.get(i + 6)?.is_punct(']');
    if is_test {
        Some(i + 4)
    } else if is_cfg_test {
        Some(i + 7)
    } else {
        None
    }
}

/// Find where the item starting at `i` (after its attributes) ends: after
/// the matching `}` of its first top-level brace group, or after a `;` met
/// before any brace.
fn item_end(tokens: &[Token], mut i: usize) -> usize {
    // Skip further attributes and doc comments.
    loop {
        match tokens.get(i) {
            Some(t) if t.is_comment() => i += 1,
            Some(t) if t.is_punct('#') && tokens.get(i + 1).is_some_and(|n| n.is_punct('[')) => {
                i = skip_group(tokens, i + 1, '[', ']');
            }
            _ => break,
        }
    }
    let mut depth = 0i32;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth <= 0 {
                return i + 1;
            }
        } else if t.is_punct(';') && depth == 0 {
            return i + 1;
        } else if (t.is_punct('(') || t.is_punct('[')) && depth == 0 {
            // Delimited groups before the body (fn args, generics bounds in
            // brackets) — skip them wholesale so a `;`/`{` inside doesn't
            // confuse the scan.
            let close = if t.is_punct('(') { ')' } else { ']' };
            i = skip_group(tokens, i, t.text.chars().next().unwrap_or('('), close);
            continue;
        }
        i += 1;
    }
    tokens.len()
}

/// Given `tokens[i]` = the opening delimiter, return the index just past
/// its matching close.
fn skip_group(tokens: &[Token], i: usize, open: char, close: char) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < tokens.len() {
        if tokens[j].is_punct(open) {
            depth += 1;
        } else if tokens[j].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    tokens.len()
}

/// Token ranges of `macro_rules! name { … }` bodies.
fn macro_rules_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i + 3 < tokens.len() {
        if tokens[i].is_ident("macro_rules")
            && tokens[i + 1].is_punct('!')
            && tokens[i + 2].kind == TokenKind::Ident
        {
            let end = skip_group(tokens, i + 3, '{', '}');
            regions.push((i, end));
            i = end;
        } else {
            i += 1;
        }
    }
    regions
}

/// Parse waiver comments. Accepted shapes (the dash may be `—`, `–`, `--`
/// or `-`):
///
/// ```text
/// // scope-analyze: allow(rule-name) — reason text
/// ```
fn parse_waivers(tokens: &[Token], path: &str) -> Vec<Waiver> {
    let mut out = Vec::new();
    for t in tokens {
        if t.kind != TokenKind::LineComment {
            continue;
        }
        let body = t.text.trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix("scope-analyze:") else {
            continue;
        };
        let rest = rest.trim();
        let Some(rest) = rest.strip_prefix("allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let reason = rest[close + 1..]
            .trim()
            .trim_start_matches(['—', '–', '-'])
            .trim()
            .to_string();
        out.push(Waiver {
            rule,
            reason,
            line: t.line,
            file: path.to_string(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::parse("x.rs".into(), "scope-x".into(), FileClass::Lib, src)
    }

    #[test]
    fn cfg_test_mod_region_covers_the_module() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n fn b() {}\n}\nfn c() {}";
        let f = file(src);
        let a = f.tokens.iter().position(|t| t.is_ident("a")).unwrap();
        let b = f.tokens.iter().position(|t| t.is_ident("b")).unwrap();
        let c = f.tokens.iter().position(|t| t.is_ident("c")).unwrap();
        assert!(!f.in_test_region(a));
        assert!(f.in_test_region(b));
        assert!(!f.in_test_region(c));
    }

    #[test]
    fn test_attribute_on_fn_is_a_region() {
        let src = "#[test]\nfn t() { x(); }\nfn u() {}";
        let f = file(src);
        let x = f.tokens.iter().position(|t| t.is_ident("x")).unwrap();
        let u = f.tokens.iter().position(|t| t.is_ident("u")).unwrap();
        assert!(f.in_test_region(x));
        assert!(!f.in_test_region(u));
    }

    #[test]
    fn attributes_between_cfg_test_and_item_are_skipped() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod tests { fn b() {} }";
        let f = file(src);
        let b = f.tokens.iter().position(|t| t.is_ident("b")).unwrap();
        assert!(f.in_test_region(b));
    }

    #[test]
    fn macro_rules_bodies_are_tracked() {
        let src = "macro_rules! m { () => { #[test] fn g() {} }; }\nfn real() {}";
        let f = file(src);
        let g = f.tokens.iter().position(|t| t.is_ident("g")).unwrap();
        let real = f.tokens.iter().position(|t| t.is_ident("real")).unwrap();
        assert!(f.in_macro_def(g));
        assert!(!f.in_macro_def(real));
    }

    #[test]
    fn waiver_parsing_accepts_dash_flavours_and_requires_shape() {
        let src = "\
// scope-analyze: allow(no-unordered-iteration) — integer merge, order-independent
// scope-analyze: allow(panic-surface) -- startup only
// scope-analyze: allow(bad-shape
// a normal comment mentioning scope-analyze: allow is ignored? no paren no match
";
        let f = file(src);
        assert_eq!(f.waivers.len(), 2);
        assert_eq!(f.waivers[0].rule, "no-unordered-iteration");
        assert_eq!(f.waivers[0].reason, "integer merge, order-independent");
        assert_eq!(f.waivers[0].line, 1);
        assert_eq!(f.waivers[1].rule, "panic-surface");
        assert_eq!(f.waivers[1].reason, "startup only");
    }

    #[test]
    fn waivers_inside_strings_do_not_count() {
        let f = file("let s = \"// scope-analyze: allow(x) — nope\";");
        assert!(f.waivers.is_empty());
    }
}
