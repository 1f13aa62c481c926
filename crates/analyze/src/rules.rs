//! The rule engine: named, waivable checks of the workspace invariants.
//!
//! Every rule reports `file:line` findings. A finding can be waived with an
//! inline comment on the same line or the line above:
//!
//! ```text
//! // scope-analyze: allow(<rule>) — <reason>
//! ```
//!
//! Waivers are counted and capped (see [`MAX_WAIVERS`]); an unused waiver,
//! a reason-less waiver or a waiver naming an unknown rule is itself a
//! finding, so the waiver file never rots.

use crate::lexer::{Token, TokenKind};
use crate::source::{FileClass, SourceFile, Waiver, Workspace};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Names of every rule, in reporting order.
pub const RULE_NAMES: &[&str] = &[
    "no-unordered-iteration",
    "no-wallclock-in-logic",
    "no-raw-threads",
    "fs-confinement",
    "panic-surface",
    "oracle-discipline",
    "shim-surface",
    "ci-floor-consistency",
    "waiver-budget",
];

/// Total inline waivers the workspace may carry.
pub const MAX_WAIVERS: usize = 10;

/// Repo-relative path of the committed panic-surface ratchet.
pub const RATCHET_FILE: &str = "panic-ratchet.txt";

/// One diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule that produced the finding.
    pub rule: &'static str,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line (0 when the finding is about a whole file).
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// Result of an analysis run.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that survived waiver filtering, sorted by (file, line).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Waivers that suppressed at least one finding.
    pub waivers_used: usize,
    /// All waivers declared in the workspace.
    pub waivers_total: usize,
    /// Non-test panic-surface counts per crate (after waivers).
    pub panic_counts: BTreeMap<String, usize>,
}

/// Run every rule on the workspace rooted at `root`.
pub fn analyze(root: &Path) -> std::io::Result<Report> {
    let all: BTreeSet<&str> = RULE_NAMES.iter().copied().collect();
    analyze_rules(root, &all)
}

/// Run only the `active` rules (fixture tests exercise one rule at a
/// time; the CLI runs all of them).
pub fn analyze_rules(root: &Path, active: &BTreeSet<&str>) -> std::io::Result<Report> {
    let ws = Workspace::load(root)?;
    let mut waivers = WaiverSet::collect(&ws);
    let mut findings: Vec<Finding> = Vec::new();
    let mut panic_counts = BTreeMap::new();

    if active.contains("no-unordered-iteration") {
        no_unordered_iteration(&ws, &mut findings);
    }
    if active.contains("no-wallclock-in-logic") {
        no_wallclock_in_logic(&ws, &mut findings);
    }
    if active.contains("no-raw-threads") {
        no_raw_threads(&ws, &mut findings);
    }
    if active.contains("fs-confinement") {
        fs_confinement(&ws, &mut findings);
    }
    if active.contains("panic-surface") {
        panic_counts = panic_surface(&ws, &mut waivers, &mut findings);
    }
    if active.contains("oracle-discipline") {
        oracle_discipline(&ws, &mut findings);
    }
    if active.contains("shim-surface") {
        shim_surface(&ws, &mut findings);
    }
    if active.contains("ci-floor-consistency") {
        ci_floor_consistency(&ws, &mut findings);
    }

    // Waiver filtering: a finding covered by a waiver for its rule on its
    // line (or the line above) is suppressed.
    findings.retain(|f| !waivers.covers(f.rule, &f.file, f.line));

    if active.contains("waiver-budget") {
        waiver_budget(&waivers, active, &mut findings);
    }

    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(Report {
        findings,
        files_scanned: ws.files.len(),
        waivers_used: waivers.used_count(),
        waivers_total: waivers.waivers.len(),
        panic_counts,
    })
}

// ---------------------------------------------------------------------------
// Waivers
// ---------------------------------------------------------------------------

struct WaiverSet {
    waivers: Vec<Waiver>,
    used: Vec<bool>,
}

impl WaiverSet {
    fn collect(ws: &Workspace) -> WaiverSet {
        let waivers: Vec<Waiver> = ws
            .files
            .values()
            .flat_map(|f| f.waivers.iter().cloned())
            .collect();
        let used = vec![false; waivers.len()];
        WaiverSet { waivers, used }
    }

    /// True when a waiver for `rule` covers `file:line`; marks it used.
    fn covers(&mut self, rule: &str, file: &str, line: u32) -> bool {
        let mut hit = false;
        for (w, used) in self.waivers.iter().zip(self.used.iter_mut()) {
            if w.rule == rule && w.file == file && (w.line == line || w.line + 1 == line) {
                *used = true;
                hit = true;
            }
        }
        hit
    }

    fn used_count(&self) -> usize {
        self.used.iter().filter(|&&u| u).count()
    }
}

fn waiver_budget(waivers: &WaiverSet, active: &BTreeSet<&str>, findings: &mut Vec<Finding>) {
    if waivers.waivers.len() > MAX_WAIVERS {
        findings.push(Finding {
            rule: "waiver-budget",
            file: "(workspace)".to_string(),
            line: 0,
            message: format!(
                "{} inline waivers exceed the budget of {MAX_WAIVERS}",
                waivers.waivers.len()
            ),
        });
    }
    for (w, &used) in waivers.waivers.iter().zip(&waivers.used) {
        if !RULE_NAMES.contains(&w.rule.as_str()) {
            findings.push(Finding {
                rule: "waiver-budget",
                file: w.file.clone(),
                line: w.line,
                message: format!("waiver names unknown rule '{}'", w.rule),
            });
            continue;
        }
        if w.reason.is_empty() {
            findings.push(Finding {
                rule: "waiver-budget",
                file: w.file.clone(),
                line: w.line,
                message: format!("waiver for '{}' has no reason", w.rule),
            });
        }
        // Only judge staleness for rules that actually ran this pass.
        if !used && active.contains(w.rule.as_str()) {
            findings.push(Finding {
                rule: "waiver-budget",
                file: w.file.clone(),
                line: w.line,
                message: format!("waiver for '{}' suppresses nothing — remove it", w.rule),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Token-stream helpers
// ---------------------------------------------------------------------------

/// Indices of the non-comment tokens of a file, in order.
fn code_view(file: &SourceFile) -> Vec<usize> {
    file.tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_comment())
        .map(|(i, _)| i)
        .collect()
}

/// True when the code-view position `p` starts the `::`-joined ident path
/// `segments` (e.g. `["std", "thread"]`).
fn matches_path(file: &SourceFile, code: &[usize], p: usize, segments: &[&str]) -> bool {
    let mut q = p;
    for (k, seg) in segments.iter().enumerate() {
        let Some(&ti) = code.get(q) else { return false };
        if !file.tokens[ti].is_ident(seg) {
            return false;
        }
        q += 1;
        if k + 1 < segments.len() {
            let (Some(&c1), Some(&c2)) = (code.get(q), code.get(q + 1)) else {
                return false;
            };
            if !file.tokens[c1].is_punct(':') || !file.tokens[c2].is_punct(':') {
                return false;
            }
            q += 2;
        }
    }
    true
}

fn tok<'a>(file: &'a SourceFile, code: &[usize], p: usize) -> Option<&'a Token> {
    code.get(p).map(|&i| &file.tokens[i])
}

// ---------------------------------------------------------------------------
// Rule: no-unordered-iteration
// ---------------------------------------------------------------------------

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Iterating a `HashMap`/`HashSet` (or an alias of one) in non-test,
/// non-`reference` code of result-producing crates leaks hash order into
/// results. Per function, tracks parameters and `let` bindings whose
/// declared type (or constructor) names a hash collection, then flags
/// `for … in` loops and order-sensitive method calls on them inside that
/// function's body — scoping avoids cross-function name collisions (an
/// `owner: HashMap` in one function must not taint an `owner: BTreeMap`
/// in another).
fn no_unordered_iteration(ws: &Workspace, findings: &mut Vec<Finding>) {
    for file in ws.files.values() {
        if file.class == FileClass::Shim || file.class == FileClass::Test {
            continue;
        }
        // Reference modules preserve seed-shaped oracles; the differential
        // tests pin their behaviour, so hash iteration there is the
        // oracle's own business.
        if file.path.ends_with("/reference.rs") {
            continue;
        }
        let code = code_view(file);
        let hash_types = hash_type_names(file, &code);
        // Nested fns are scanned both as part of the outer body and on
        // their own pass; dedup keeps each site reported once.
        let mut seen: BTreeSet<(u32, String)> = BTreeSet::new();
        for p in 0..code.len() {
            if !file.tokens[code[p]].is_ident("fn") {
                continue;
            }
            let Some((body_start, body_end)) = fn_body_range(file, &code, p) else {
                continue;
            };
            let mut tracked = BTreeSet::new();
            param_hash_bindings(file, &code, p + 1, body_start, &hash_types, &mut tracked);
            let_hash_bindings(file, &code, body_start, body_end, &hash_types, &mut tracked);
            if tracked.is_empty() {
                continue;
            }
            scan_iteration_sites(
                file, &code, body_start, body_end, &tracked, &mut seen, findings,
            );
        }
    }
}

/// Code-view range `[start, end)` of the body of the `fn` whose keyword is
/// at position `p`, or `None` for a body-less declaration.
fn fn_body_range(file: &SourceFile, code: &[usize], p: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    let mut q = p + 1;
    loop {
        let t = tok(file, code, q)?;
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 && t.is_punct(';') {
            return None; // trait method declaration
        } else if depth == 0 && t.is_punct('{') {
            break;
        }
        q += 1;
    }
    let body_start = q;
    let mut brace = 0i32;
    while let Some(t) = tok(file, code, q) {
        if t.is_punct('{') {
            brace += 1;
        } else if t.is_punct('}') {
            brace -= 1;
            if brace == 0 {
                return Some((body_start, q + 1));
            }
        }
        q += 1;
    }
    Some((body_start, code.len()))
}

fn scan_iteration_sites(
    file: &SourceFile,
    code: &[usize],
    start: usize,
    end: usize,
    tracked: &BTreeSet<String>,
    seen: &mut BTreeSet<(u32, String)>,
    findings: &mut Vec<Finding>,
) {
    for p in start..end {
        let ti = code[p];
        if file.is_test_code(ti) {
            continue;
        }
        let t = &file.tokens[ti];
        // `name.method(` with an order-sensitive method.
        if t.kind == TokenKind::Ident && tracked.contains(t.text.as_str()) {
            if let (Some(dot), Some(m), Some(paren)) = (
                tok(file, code, p + 1),
                tok(file, code, p + 2),
                tok(file, code, p + 3),
            ) {
                if dot.is_punct('.')
                    && m.kind == TokenKind::Ident
                    && ITER_METHODS.contains(&m.text.as_str())
                    && paren.is_punct('(')
                {
                    let message = format!(
                        "`{}.{}()` iterates a hash-ordered collection; use a \
                         BTreeMap/BTreeSet or sort before iterating",
                        t.text, m.text
                    );
                    if seen.insert((t.line, message.clone())) {
                        findings.push(Finding {
                            rule: "no-unordered-iteration",
                            file: file.path.clone(),
                            line: t.line,
                            message,
                        });
                    }
                    continue;
                }
            }
        }
        // `for pat in [&][mut] name {`
        if t.is_ident("for") {
            if let Some((name, line)) = for_loop_over(file, code, p, tracked) {
                let message = format!(
                    "`for … in {name}` iterates a hash-ordered collection; use a \
                     BTreeMap/BTreeSet or sort before iterating"
                );
                if seen.insert((line, message.clone())) {
                    findings.push(Finding {
                        rule: "no-unordered-iteration",
                        file: file.path.clone(),
                        line,
                        message,
                    });
                }
            }
        }
    }
}

/// `HashMap`/`HashSet` plus any local `type X = …Hash…;` aliases.
fn hash_type_names(file: &SourceFile, code: &[usize]) -> BTreeSet<String> {
    let mut names: BTreeSet<String> = ["HashMap", "HashSet"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    for p in 0..code.len() {
        if !file.tokens[code[p]].is_ident("type") {
            continue;
        }
        let Some(alias) = tok(file, code, p + 1) else {
            continue;
        };
        if alias.kind != TokenKind::Ident {
            continue;
        }
        // Scan the alias definition up to `;` for a known hash type.
        let mut q = p + 2;
        let mut is_hash = false;
        while let Some(t) = tok(file, code, q) {
            if t.is_punct(';') {
                break;
            }
            if t.kind == TokenKind::Ident && names.contains(t.text.as_str()) {
                is_hash = true;
            }
            q += 1;
        }
        if is_hash {
            names.insert(alias.text.clone());
        }
    }
    names
}

/// Track the parameters of a function signature (code positions
/// `[sig_start, body_start)`) whose declared type names a hash type.
fn param_hash_bindings(
    file: &SourceFile,
    code: &[usize],
    sig_start: usize,
    body_start: usize,
    hash_types: &BTreeSet<String>,
    tracked: &mut BTreeSet<String>,
) {
    let Some(open) =
        (sig_start..body_start).find(|&q| tok(file, code, q).is_some_and(|t| t.is_punct('(')))
    else {
        return;
    };
    let mut depth = 0i32;
    let mut q = open;
    let mut param: Option<String> = None;
    let mut param_is_hash = false;
    while q < body_start {
        let Some(t) = tok(file, code, q) else { break };
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
            if depth == 1 {
                q += 1;
                // First ident at depth 1 after `(` is the parameter name.
                param = tok(file, code, q)
                    .filter(|t| t.kind == TokenKind::Ident)
                    .map(|t| t.text.clone());
                continue;
            }
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.is_punct(',') && depth == 1 {
            if param_is_hash {
                if let Some(name) = param.take() {
                    tracked.insert(name);
                }
            }
            param_is_hash = false;
            param = tok(file, code, q + 1)
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| t.text.clone());
        } else if t.kind == TokenKind::Ident && hash_types.contains(t.text.as_str()) {
            param_is_hash = true;
        }
        q += 1;
    }
    if param_is_hash {
        if let Some(name) = param {
            tracked.insert(name);
        }
    }
}

/// Track `let` bindings in the code-position range whose type annotation
/// or initializer names a hash type.
fn let_hash_bindings(
    file: &SourceFile,
    code: &[usize],
    start: usize,
    end: usize,
    hash_types: &BTreeSet<String>,
    tracked: &mut BTreeSet<String>,
) {
    for p in start..end {
        if !file.tokens[code[p]].is_ident("let") {
            continue;
        }
        let mut q = p + 1;
        if tok(file, code, q).is_some_and(|t| t.is_ident("mut")) {
            q += 1;
        }
        let Some(name) = tok(file, code, q) else {
            continue;
        };
        if name.kind != TokenKind::Ident {
            continue; // tuple/struct patterns: not tracked
        }
        // Scan `: type = init;` (or `= init;`) for a hash type name up to
        // the terminating `;` at bracket depth 0.
        let mut depth = 0i32;
        let mut r = q + 1;
        let mut is_hash = false;
        while r < end {
            let Some(t) = tok(file, code, r) else { break };
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            } else if t.is_punct(';') && depth == 0 {
                break;
            } else if t.kind == TokenKind::Ident && hash_types.contains(t.text.as_str()) {
                is_hash = true;
            }
            r += 1;
        }
        if is_hash {
            tracked.insert(name.text.clone());
        }
    }
}

/// If the `for` at code position `p` loops directly over a tracked
/// binding (`for x in map {`, `for x in &map {`), return its name/line.
fn for_loop_over(
    file: &SourceFile,
    code: &[usize],
    p: usize,
    tracked: &BTreeSet<String>,
) -> Option<(String, u32)> {
    // Find `in` at bracket depth 0 before the loop body `{`.
    let mut q = p + 1;
    let mut depth = 0i32;
    loop {
        let t = tok(file, code, q)?;
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_ident("in") && depth == 0 {
            break;
        } else if t.is_punct('{') {
            return None; // malformed / `for` in another role
        }
        q += 1;
    }
    // Expression: optional `&` / `mut`, then a tracked ident directly
    // followed by the loop body.
    q += 1;
    while tok(file, code, q).is_some_and(|t| t.is_punct('&') || t.is_ident("mut")) {
        q += 1;
    }
    let name = tok(file, code, q)?;
    if name.kind != TokenKind::Ident || !tracked.contains(name.text.as_str()) {
        return None;
    }
    let next = tok(file, code, q + 1)?;
    if next.is_punct('{') {
        Some((name.text.clone(), name.line))
    } else {
        None // method chains are handled by the `.method(` scan
    }
}

// ---------------------------------------------------------------------------
// Rule: no-wallclock-in-logic
// ---------------------------------------------------------------------------

/// `std::time` makes results depend on the host clock. It is allowed only
/// in `compress::measure`, the one place the workspace takes a timing.
fn no_wallclock_in_logic(ws: &Workspace, findings: &mut Vec<Finding>) {
    for file in ws.files.values() {
        if file.class == FileClass::Shim
            || file.class == FileClass::Test
            || file.path.ends_with("compress/src/measure.rs")
        {
            continue;
        }
        let code = code_view(file);
        for p in 0..code.len() {
            if file.is_test_code(code[p]) {
                continue;
            }
            if matches_path(file, &code, p, &["std", "time"]) {
                findings.push(Finding {
                    rule: "no-wallclock-in-logic",
                    file: file.path.clone(),
                    line: file.tokens[code[p]].line,
                    message: "wall-clock (`std::time`) outside compress::measure makes \
                              results host-dependent"
                        .to_string(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: no-raw-threads
// ---------------------------------------------------------------------------

/// Raw `std::thread` spawns bypass the deterministic fan-out
/// (`scope-cloudsim::parallel`), whose chunk-and-merge discipline is what
/// keeps parallel results bit-identical for any thread count.
fn no_raw_threads(ws: &Workspace, findings: &mut Vec<Finding>) {
    for file in ws.files.values() {
        if file.class == FileClass::Shim
            || file.class == FileClass::Test
            || file.path.ends_with("cloudsim/src/parallel.rs")
        {
            continue;
        }
        let code = code_view(file);
        for p in 0..code.len() {
            if file.is_test_code(code[p]) {
                continue;
            }
            if matches_path(file, &code, p, &["std", "thread"]) {
                findings.push(Finding {
                    rule: "no-raw-threads",
                    file: file.path.clone(),
                    line: file.tokens[code[p]].line,
                    message: "raw `std::thread` outside scope-cloudsim::parallel — use the \
                              deterministic fan-out (`parallel_map`) instead"
                        .to_string(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: fs-confinement
// ---------------------------------------------------------------------------

/// Durability belongs to the WAL storage backend: every filesystem touch
/// in pipeline code must flow through the `Storage` trait so the fault
/// injector and crash fuzzer see it. `std::fs` paths and direct
/// `File::` / `OpenOptions::` handles are allowed only in the file
/// backend itself (`wal/src/file.rs`) and the analyzer (which reads the
/// sources it lints).
fn fs_confinement(ws: &Workspace, findings: &mut Vec<Finding>) {
    for file in ws.files.values() {
        if file.class == FileClass::Shim
            || file.class == FileClass::Test
            || file.crate_name == "scope-analyze"
            || file.path.ends_with("wal/src/file.rs")
        {
            continue;
        }
        let code = code_view(file);
        for p in 0..code.len() {
            if file.is_test_code(code[p]) {
                continue;
            }
            let what = if matches_path(file, &code, p, &["std", "fs"]) {
                Some("`std::fs`")
            } else if (file.tokens[code[p]].is_ident("File")
                || file.tokens[code[p]].is_ident("OpenOptions"))
                && tok(file, &code, p + 1).is_some_and(|t| t.is_punct(':'))
                && tok(file, &code, p + 2).is_some_and(|t| t.is_punct(':'))
            {
                Some("a direct file handle")
            } else {
                None
            };
            if let Some(what) = what {
                findings.push(Finding {
                    rule: "fs-confinement",
                    file: file.path.clone(),
                    line: file.tokens[code[p]].line,
                    message: format!(
                        "{what} outside the WAL file backend — route durability \
                         through the `Storage` trait so fault injection and crash \
                         fuzzing cover it"
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: panic-surface
// ---------------------------------------------------------------------------

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Count panic sites (`.unwrap()`, `.expect(…)`, `panic!`, `unreachable!`,
/// `todo!`, `unimplemented!`) per crate in non-test code and check the
/// counts against the committed ratchet file, which may only go down.
fn panic_surface(
    ws: &Workspace,
    waivers: &mut WaiverSet,
    findings: &mut Vec<Finding>,
) -> BTreeMap<String, usize> {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for file in ws.files.values() {
        if file.class == FileClass::Shim {
            continue;
        }
        counts.entry(file.crate_name.clone()).or_insert(0);
        if file.class == FileClass::Test {
            continue; // tests may unwrap freely; the crate still gets a row
        }
        let code = code_view(file);
        for p in 0..code.len() {
            let ti = code[p];
            if file.is_test_code(ti) {
                continue;
            }
            let t = &file.tokens[ti];
            let is_site = if t.is_ident("unwrap") || t.is_ident("expect") {
                p > 0
                    && file.tokens[code[p - 1]].is_punct('.')
                    && tok(file, &code, p + 1).is_some_and(|n| n.is_punct('('))
            } else if t.kind == TokenKind::Ident && PANIC_MACROS.contains(&t.text.as_str()) {
                tok(file, &code, p + 1).is_some_and(|n| n.is_punct('!'))
            } else {
                false
            };
            if is_site && !waivers.covers("panic-surface", &file.path, t.line) {
                *counts.entry(file.crate_name.clone()).or_insert(0) += 1;
            }
        }
    }

    let ratchet_path = ws.root.join(RATCHET_FILE);
    let Ok(text) = std::fs::read_to_string(&ratchet_path) else {
        findings.push(Finding {
            rule: "panic-surface",
            file: RATCHET_FILE.to_string(),
            line: 0,
            message: format!(
                "missing ratchet file {RATCHET_FILE}; commit one with the current \
                 per-crate counts: {}",
                format_counts(&counts)
            ),
        });
        return counts;
    };
    let mut committed: BTreeMap<String, usize> = BTreeMap::new();
    for (idx, line) in text.lines().enumerate() {
        let line_no = idx as u32 + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let (Some(name), Some(count), None) = (parts.next(), parts.next(), parts.next()) else {
            findings.push(Finding {
                rule: "panic-surface",
                file: RATCHET_FILE.to_string(),
                line: line_no,
                message: format!("malformed ratchet line '{trimmed}' (want: <crate> <count>)"),
            });
            continue;
        };
        match count.parse::<usize>() {
            Ok(n) => {
                committed.insert(name.to_string(), n);
            }
            Err(_) => findings.push(Finding {
                rule: "panic-surface",
                file: RATCHET_FILE.to_string(),
                line: line_no,
                message: format!("bad count '{count}' for crate {name}"),
            }),
        }
    }
    for (name, &actual) in &counts {
        match committed.get(name) {
            None => findings.push(Finding {
                rule: "panic-surface",
                file: RATCHET_FILE.to_string(),
                line: 0,
                message: format!("crate {name} missing from the ratchet (current count {actual})"),
            }),
            Some(&limit) if actual > limit => findings.push(Finding {
                rule: "panic-surface",
                file: RATCHET_FILE.to_string(),
                line: 0,
                message: format!(
                    "panic surface of {name} grew: {actual} sites vs ratchet {limit} — \
                     remove panics or waive the new site"
                ),
            }),
            Some(&limit) if actual < limit => findings.push(Finding {
                rule: "panic-surface",
                file: RATCHET_FILE.to_string(),
                line: 0,
                message: format!(
                    "ratchet for {name} is stale: {actual} sites vs committed {limit} — \
                     tighten the ratchet to {actual}"
                ),
            }),
            Some(_) => {}
        }
    }
    for name in committed.keys() {
        if !counts.contains_key(name) {
            findings.push(Finding {
                rule: "panic-surface",
                file: RATCHET_FILE.to_string(),
                line: 0,
                message: format!("ratchet lists unknown crate {name}"),
            });
        }
    }
    counts
}

fn format_counts(counts: &BTreeMap<String, usize>) -> String {
    counts
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(", ")
}

// ---------------------------------------------------------------------------
// Rule: oracle-discipline
// ---------------------------------------------------------------------------

/// Every preserved reference oracle — a `fn` whose name ends in
/// `_reference`, or any `pub fn` in a `reference.rs` module — must be
/// exercised from test code somewhere in the workspace, otherwise the
/// differential pin the PR discipline promises does not exist.
fn oracle_discipline(ws: &Workspace, findings: &mut Vec<Finding>) {
    // Identifiers mentioned anywhere in test code.
    let mut test_idents: BTreeSet<&str> = BTreeSet::new();
    for file in ws.files.values() {
        for (i, t) in file.tokens.iter().enumerate() {
            if t.kind == TokenKind::Ident && file.is_test_code(i) {
                test_idents.insert(t.text.as_str());
            }
        }
    }
    for file in ws.files.values() {
        if file.class == FileClass::Shim || file.class == FileClass::Test {
            continue;
        }
        let in_reference_module = file.path.ends_with("/reference.rs");
        let code = code_view(file);
        for p in 0..code.len() {
            let ti = code[p];
            if file.is_test_code(ti) || file.in_macro_def(ti) {
                continue;
            }
            if !file.tokens[ti].is_ident("fn") {
                continue;
            }
            let Some(name) = tok(file, &code, p + 1) else {
                continue;
            };
            if name.kind != TokenKind::Ident {
                continue;
            }
            let is_oracle = name.text.ends_with("_reference")
                || (in_reference_module && p > 0 && file.tokens[code[p - 1]].is_ident("pub"));
            if is_oracle && !test_idents.contains(name.text.as_str()) {
                findings.push(Finding {
                    rule: "oracle-discipline",
                    file: file.path.clone(),
                    line: name.line,
                    message: format!(
                        "reference oracle `{}` is never exercised from test code — add a \
                         differential test pinning it against the fast path",
                        name.text
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: shim-surface
// ---------------------------------------------------------------------------

/// Imports from the vendored shims must name items the shims actually
/// export; anything else only fails at build time in an environment that
/// never had the real crates.
fn shim_surface(ws: &Workspace, findings: &mut Vec<Finding>) {
    // Exported names per shim crate (flat: items, modules, macros,
    // re-exports at any depth).
    let mut exports: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    for file in ws.files.values() {
        if file.class != FileClass::Shim {
            continue;
        }
        let set = exports.entry(file.crate_name.as_str()).or_default();
        collect_shim_exports(file, set);
    }
    if exports.is_empty() {
        return; // fixture workspaces without shims
    }
    for file in ws.files.values() {
        if file.class == FileClass::Shim {
            continue;
        }
        let code = code_view(file);
        for p in 0..code.len() {
            if !file.tokens[code[p]].is_ident("use") {
                continue;
            }
            let Some(first) = tok(file, &code, p + 1) else {
                continue;
            };
            let Some(export_set) = exports.get(first.text.as_str()) else {
                continue;
            };
            // Walk the use-tree to `;`, checking every path/leaf ident.
            let mut q = p + 2;
            let mut prev_was_as = false;
            while let Some(t) = tok(file, &code, q) {
                if t.is_punct(';') {
                    break;
                }
                if t.is_ident("as") {
                    prev_was_as = true;
                    q += 1;
                    continue;
                }
                if t.kind == TokenKind::Ident && !prev_was_as {
                    let name = t.text.as_str();
                    let is_path_keyword = matches!(name, "self" | "super" | "crate");
                    if !is_path_keyword && !export_set.contains(name) {
                        findings.push(Finding {
                            rule: "shim-surface",
                            file: file.path.clone(),
                            line: t.line,
                            message: format!(
                                "`{}::…::{name}` is not exported by the {} shim — extend \
                                 shims/{}/src before depending on new surface",
                                first.text, first.text, first.text
                            ),
                        });
                    }
                }
                prev_was_as = false;
                q += 1;
            }
        }
    }
}

/// Collect the publicly importable names a shim file defines.
fn collect_shim_exports(file: &SourceFile, set: &mut BTreeSet<String>) {
    const ITEM_KEYWORDS: &[&str] = &[
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
    ];
    let code = code_view(file);
    for p in 0..code.len() {
        let t = &file.tokens[code[p]];
        if t.is_ident("pub") {
            let Some(next) = tok(file, &code, p + 1) else {
                continue;
            };
            if next.is_punct('(') {
                continue; // pub(crate)/pub(super): not importable
            }
            if next.is_ident("use") {
                // Re-export: every ident in the tree becomes importable
                // (both original names and `as` aliases).
                let mut q = p + 2;
                while let Some(t) = tok(file, &code, q) {
                    if t.is_punct(';') {
                        break;
                    }
                    if t.kind == TokenKind::Ident
                        && !matches!(t.text.as_str(), "self" | "super" | "crate" | "as")
                    {
                        set.insert(t.text.clone());
                    }
                    q += 1;
                }
            } else if ITEM_KEYWORDS.contains(&next.text.as_str()) {
                if let Some(name) = tok(file, &code, p + 2) {
                    if name.kind == TokenKind::Ident {
                        set.insert(name.text.clone());
                    }
                }
            } else if next.is_ident("unsafe") || next.is_ident("async") {
                // `pub unsafe fn`, `pub async fn`.
                if let (Some(kw), Some(name)) = (tok(file, &code, p + 2), tok(file, &code, p + 3)) {
                    if ITEM_KEYWORDS.contains(&kw.text.as_str()) && name.kind == TokenKind::Ident {
                        set.insert(name.text.clone());
                    }
                }
            }
        } else if t.is_ident("macro_rules") {
            // Exported macros (the shims mark them #[macro_export]).
            if let (Some(bang), Some(name)) = (tok(file, &code, p + 1), tok(file, &code, p + 2)) {
                if bang.is_punct('!') && name.kind == TokenKind::Ident {
                    set.insert(name.text.clone());
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: ci-floor-consistency
// ---------------------------------------------------------------------------

/// `ci.sh` guards the release suite with a `min_tests` floor. The floor
/// must equal a static recount of the `#[test]` functions (plus
/// `proptest!`-generated cases) in targets `cargo test` actually runs, so
/// a suite that shrinks — or a floor that was forgotten after adding
/// tests — both fail.
fn ci_floor_consistency(ws: &Workspace, findings: &mut Vec<Finding>) {
    let ci_path = ws.root.join("ci.sh");
    let Ok(ci) = std::fs::read_to_string(&ci_path) else {
        return; // fixture workspaces without a CI script
    };
    let mut floor: Option<usize> = None;
    let mut floor_line = 0u32;
    for (idx, line) in ci.lines().enumerate() {
        if let Some(rest) = line.trim().strip_prefix("min_tests=") {
            let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
            if let Ok(n) = digits.parse() {
                floor = Some(n);
                floor_line = idx as u32 + 1;
            }
        }
    }
    let Some(floor) = floor else {
        findings.push(Finding {
            rule: "ci-floor-consistency",
            file: "ci.sh".to_string(),
            line: 0,
            message: "no `min_tests=<n>` floor found in ci.sh".to_string(),
        });
        return;
    };
    let recount = count_tests(ws);
    if recount != floor {
        findings.push(Finding {
            rule: "ci-floor-consistency",
            file: "ci.sh".to_string(),
            line: floor_line,
            message: format!(
                "min_tests={floor} but the static recount of #[test] cases in targets \
                 cargo test runs is {recount} — update the floor"
            ),
        });
    }
}

/// Static count of test functions in targets `cargo test` runs by default:
/// crate/shim sources (unit tests, including bins) and top-level
/// `tests/*.rs` integration tests — not examples. Counts
/// `#[test]` attributes outside `macro_rules!` templates. The proptest
/// shim's `proptest!` keeps each case's `#[test]` meta verbatim in the
/// invocation, so proptest cases are counted by the same scan — counting
/// the `fn`s inside the block as well would double-count them.
pub fn count_tests(ws: &Workspace) -> usize {
    let mut count = 0usize;
    for file in ws.files.values() {
        match file.class {
            FileClass::Lib | FileClass::Test | FileClass::Shim => {}
            FileClass::Example => continue,
        }
        let code = code_view(file);
        for p in 0..code.len() {
            let ti = code[p];
            if file.in_macro_def(ti) {
                continue;
            }
            let t = &file.tokens[ti];
            // `#[test]`
            if t.is_punct('#')
                && tok(file, &code, p + 1).is_some_and(|t| t.is_punct('['))
                && tok(file, &code, p + 2).is_some_and(|t| t.is_ident("test"))
                && tok(file, &code, p + 3).is_some_and(|t| t.is_punct(']'))
            {
                count += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn lib_file(src: &str) -> SourceFile {
        SourceFile::parse(
            "crates/x/src/lib.rs".into(),
            "scope-x".into(),
            FileClass::Lib,
            src,
        )
    }

    #[test]
    fn hash_bindings_are_tracked_through_aliases_and_params() {
        let f = lib_file(
            "type Fnv<K,V> = HashMap<K,V,S>;\n\
             fn g(m: &HashMap<u32, f64>, v: Vec<u8>) { for x in m {} for y in v {} }\n\
             fn h() {\n\
             let mut a: Fnv<u8, u8> = Fnv::default();\n\
             let c: Vec<u32> = Vec::new();\n\
             for x in a {}\n\
             for y in c {}\n\
             }",
        );
        let code = code_view(&f);
        let types = hash_type_names(&f, &code);
        assert!(types.contains("Fnv"));
        let mut ws = Workspace::default();
        ws.files.insert(f.path.clone(), f);
        let mut findings = Vec::new();
        no_unordered_iteration(&ws, &mut findings);
        let flagged: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
        assert_eq!(findings.len(), 2, "{flagged:?}");
        assert!(flagged[0].contains("in m"));
        assert!(flagged[1].contains("in a"));
    }

    #[test]
    fn binding_tracking_is_function_scoped() {
        // `owner` is a HashMap in one function and a BTreeMap in another;
        // iterating the BTreeMap one must not be flagged.
        let f = lib_file(
            "fn a() { let owner: HashMap<u32, u32> = HashMap::new(); let _ = owner.get(&1); }\n\
             fn b() { let owner: BTreeMap<u32, u32> = BTreeMap::new(); for x in owner {} }",
        );
        let mut ws = Workspace::default();
        ws.files.insert(f.path.clone(), f);
        let mut findings = Vec::new();
        no_unordered_iteration(&ws, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn iteration_sites_are_flagged_lookups_are_not() {
        let f = lib_file(
            "fn h() {\n\
             let mut m: HashMap<u32, f64> = HashMap::new();\n\
             m.insert(1, 2.0);\n\
             let _ = m.get(&1);\n\
             for (k, v) in &m { use_it(k, v); }\n\
             let _: Vec<_> = m.keys().collect();\n\
             }",
        );
        let ws = Workspace::default();
        let mut findings = Vec::new();
        // Drive the per-file logic through a one-file workspace.
        let mut ws = ws;
        ws.files.insert(f.path.clone(), f);
        no_unordered_iteration(&ws, &mut findings);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].message.contains("for … in m"));
        assert!(findings[1].message.contains("m.keys()"));
    }

    #[test]
    fn test_code_and_reference_modules_are_exempt() {
        let tests_mod = "#[cfg(test)]\nmod tests {\n fn t() { let m = HashMap::new(); \
                         for x in m {} }\n}";
        let mut ws = Workspace::default();
        ws.files
            .insert("crates/x/src/lib.rs".into(), lib_file(tests_mod));
        ws.files.insert(
            "crates/x/src/reference.rs".into(),
            SourceFile::parse(
                "crates/x/src/reference.rs".into(),
                "scope-x".into(),
                FileClass::Lib,
                "fn seed() { let m = HashMap::new(); for x in m {} }",
            ),
        );
        let mut findings = Vec::new();
        no_unordered_iteration(&ws, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn static_test_recount_counts_attrs_once_each() {
        let mut ws = Workspace::default();
        ws.files.insert(
            "crates/x/src/lib.rs".into(),
            lib_file(
                "#[cfg(test)]\nmod tests {\n#[test]\nfn a() {}\n#[test]\nfn b() {}\n}\n\
                 macro_rules! m { () => { #[test] fn fake() {} }; }",
            ),
        );
        // The proptest shim's proptest! passes each case's `#[test]` meta
        // through verbatim; the case must be counted exactly once.
        ws.files.insert(
            "tests/it.rs".into(),
            SourceFile::parse(
                "tests/it.rs".into(),
                "scope".into(),
                FileClass::Test,
                "#[test]\nfn c() {}\nproptest! {\n #[test]\n fn p1(x in 0..9) {}\n}",
            ),
        );
        ws.files.insert(
            "examples/e.rs".into(),
            SourceFile::parse(
                "examples/e.rs".into(),
                "scope".into(),
                FileClass::Example,
                "#[test]\nfn not_run_by_cargo_test() {}",
            ),
        );
        assert_eq!(count_tests(&ws), 4);
    }
}
