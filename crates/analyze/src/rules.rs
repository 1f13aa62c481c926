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
    "dead-pub",
    "shim-surface",
    "ci-floor-consistency",
    "waiver-budget",
];

/// Total inline waivers the workspace may carry.
pub const MAX_WAIVERS: usize = 10;

/// Repo-relative path of the committed panic-surface ratchet.
const RATCHET_FILE: &str = "panic-ratchet.txt";

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
    if active.contains("dead-pub") {
        dead_pub(&ws, &mut findings);
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
// Rule: dead-pub
// ---------------------------------------------------------------------------

/// True for the library source of a member crate: `crates/<name>/src`
/// without its binaries (`src/main.rs`, `src/bin/`), which use the library
/// from outside like any other crate.
fn is_member_library(file: &SourceFile) -> bool {
    file.class == FileClass::Lib
        && file.path.starts_with("crates/")
        && !file.path.ends_with("/src/main.rs")
        && !file.path.contains("/src/bin/")
}

/// Public surface of a member crate's library that nothing outside that
/// library uses. "Outside" is any other crate, any `tests/`, the bins, the
/// root package and its examples, and the read-only
/// [`crate::source::NAME_ROOTS`]; matching is by token, so a doc link or a
/// comment is not a caller. Three kinds of finding, all non-test:
///
/// - a `pub fn` named nowhere outside: make it `pub(crate)` or private, or
///   delete it with the tests that pin only it;
/// - a `pub struct|enum|trait|type|const|static` (associated `pub const`s
///   too) that is not *live*: named nowhere outside, and exposed by no live
///   public signature of its own library — a `pub fn`'s parameters or
///   return type, a `pub` field's type, a public enum's variant payload, a
///   `pub type`'s right-hand side. A signature is live while the item it
///   belongs to is: a method's while its `impl`'s type is, a field's while
///   its struct is, a free fn's while something outside names the fn. A
///   type that only its own methods return is therefore a finding: demote
///   or delete it;
/// - a knob: a `pub` field of a `pub struct` with a hand-written
///   `impl Default` that nothing outside sets, so every caller takes the
///   default. A field is set by a literal of its own struct outside the
///   library (`Name { field: … }`, the `field` shorthand, the fields before
///   an `..base` update; a destructuring pattern sets nothing), by an
///   `x.field =` assignment outside where the same file binds `x` to the
///   struct (`let x = Name { … }`, `let x = Name::default()`, `x: Name`;
///   the lexer sees no types, so nothing else tells what `x` is), or by a
///   public constructor of its struct that takes a
///   parameter of the field's name (`CostWeights::new(alpha, beta,
///   gamma)`): make it a private constant equal to that default.
///
/// `reference.rs` oracles are `oracle-discipline`'s business.
fn dead_pub(ws: &Workspace, findings: &mut Vec<Finding>) {
    // Per identifier, and per `(struct, field)` a literal or an assignment
    // to a binding of the struct sets: the member libraries that do it;
    // `None` stands for any code outside every member library.
    type Owners<'a> = BTreeSet<Option<&'a str>>;
    let mut named_in: BTreeMap<&str, Owners> = BTreeMap::new();
    let mut set_in: BTreeMap<(&str, &str), Owners> = BTreeMap::new();
    let sources = ws.files.values().filter(|f| f.class != FileClass::Shim);
    for file in sources.chain(&ws.name_roots) {
        let owner = is_member_library(file).then_some(file.crate_name.as_str());
        for t in &file.tokens {
            if t.kind == TokenKind::Ident {
                named_in.entry(t.text.as_str()).or_default().insert(owner);
            }
        }
        let code = code_view(file);
        let mut bound: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for p in 0..code.len() {
            if let Some((var, name)) = binding(file, &code, p) {
                bound.entry(var).or_default().insert(name);
            }
        }
        for p in 0..code.len() {
            if let Some((name, fields)) = struct_literal(file, &code, p) {
                for field in fields {
                    set_in.entry((name, field)).or_default().insert(owner);
                }
            }
            let Some(field) = assigned_field(file, &code, p) else {
                continue;
            };
            let receiver = p.checked_sub(1).and_then(|r| tok(file, &code, r));
            let names = receiver.and_then(|t| bound.get(t.text.as_str()));
            for &name in names.into_iter().flatten() {
                set_in.entry((name, field)).or_default().insert(owner);
            }
        }
    }
    let outside = |owners: Option<&Owners>, krate: &str| {
        owners.is_some_and(|owners| owners.iter().any(|&owner| owner != Some(krate)))
    };
    let named_outside = |name: &str, krate: &str| outside(named_in.get(name), krate);

    // Per member library: its public signatures, each with the identifiers
    // it names and the item it belongs to; the structs it gives a
    // hand-written `impl Default`; the fields its public constructors take.
    let mut signatures: Vec<(&str, &str, Vec<&str>)> = Vec::new();
    let mut defaulted: BTreeSet<(&str, &str)> = BTreeSet::new();
    let mut constructed: BTreeSet<(&str, &str, &str)> = BTreeSet::new();
    for file in ws.files.values().filter(|f| is_member_library(f)) {
        let code = code_view(file);
        let krate = file.crate_name.as_str();
        let bodies = item_bodies(file, &code);
        for body in &bodies {
            if body.trait_name == Some("Default") {
                defaulted.insert((krate, body.owner));
            }
        }
        for p in 0..code.len() {
            let ti = code[p];
            if file.is_test_code(ti) || file.in_macro_def(ti) {
                continue;
            }
            let Some((start, end)) = public_signature(file, &code, p) else {
                continue;
            };
            let enclosing = bodies
                .iter()
                .filter(|b| b.open < p && p < b.end)
                .max_by_key(|b| b.open);
            let owner = match (pub_item(file, &code, p), enclosing) {
                (Some(("fn", n)), Some(body)) if body.is_impl => {
                    if body.trait_name.is_none() {
                        let params = constructor_params(file, &code, n, body.owner);
                        constructed.extend(params.into_iter().map(|f| (krate, body.owner, f)));
                    }
                    body.owner
                }
                (Some((_, n)), _) => file.tokens[code[n]].text.as_str(),
                (None, Some(body)) => body.owner,
                (None, None) => continue,
            };
            let idents = code[start..end]
                .iter()
                .map(|&ti| &file.tokens[ti])
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| t.text.as_str())
                .collect();
            signatures.push((krate, owner, idents));
        }
    }
    // Live signatures expose what they name, which may make more of them
    // live: iterate to the least fixpoint, so a type its own constructor
    // returns stays dead.
    let mut exposed: BTreeSet<(&str, &str)> = BTreeSet::new();
    loop {
        let before = exposed.len();
        for (krate, owner, idents) in &signatures {
            if named_outside(owner, krate) || exposed.contains(&(*krate, *owner)) {
                exposed.extend(idents.iter().map(|&ident| (*krate, ident)));
            }
        }
        if exposed.len() == before {
            break;
        }
    }

    for file in ws.files.values() {
        if !is_member_library(file) || file.path.ends_with("/reference.rs") {
            continue;
        }
        let krate = file.crate_name.as_str();
        let code = code_view(file);
        for p in 0..code.len() {
            let ti = code[p];
            if file.is_test_code(ti) || file.in_macro_def(ti) {
                continue;
            }
            let Some((kind, n)) = pub_item(file, &code, p) else {
                continue;
            };
            let name = &file.tokens[code[n]];
            let item = name.text.as_str();
            if kind == "struct" && defaulted.contains(&(krate, item)) {
                for field in named_fields(file, &code, n) {
                    let field = &file.tokens[code[field]];
                    let set = outside(set_in.get(&(item, field.text.as_str())), krate)
                        || constructed.contains(&(krate, item, field.text.as_str()));
                    if !set {
                        findings.push(Finding {
                            rule: "dead-pub",
                            file: file.path.clone(),
                            line: field.line,
                            message: format!(
                                "knob `{item}::{}` is set nowhere outside {krate}'s src/ (no \
                                 `{item} {{ {0}: … }}` literal, no `.{0} =` on a binding of \
                                 `{item}`, no public constructor parameter), so every caller \
                                 takes its default — make it a private constant equal to \
                                 that default",
                                field.text
                            ),
                        });
                    }
                }
            }
            if named_outside(item, krate) || (kind != "fn" && exposed.contains(&(krate, item))) {
                continue;
            }
            let remedy = if kind == "fn" {
                "make it pub(crate) or private, or delete it with the tests that pin only it"
            } else {
                "and no live public signature of it exposes it — make it pub(crate) or \
                 private, or delete it"
            };
            findings.push(Finding {
                rule: "dead-pub",
                file: file.path.clone(),
                line: name.line,
                message: format!(
                    "`pub {kind} {item}` is named nowhere outside {krate}'s src/ {remedy}"
                ),
            });
        }
    }
}

/// Item keywords the `dead-pub` rule judges.
const PUB_ITEMS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static"];

/// When code position `p` is the `pub` of a [`PUB_ITEMS`] item (not
/// `pub(…)`), its keyword and the code position of its name.
fn pub_item(file: &SourceFile, code: &[usize], p: usize) -> Option<(&'static str, usize)> {
    if !tok(file, code, p)?.is_ident("pub") {
        return None;
    }
    let ident = |q: usize, names: &[&str]| {
        tok(file, code, q)
            .is_some_and(|t| t.kind == TokenKind::Ident && names.contains(&t.text.as_str()))
    };
    // Qualifiers: `async`, `unsafe`, `extern "abi"`, and `const` before `fn`.
    let mut q = p + 1;
    while ident(q, &["async", "unsafe", "extern"])
        || tok(file, code, q).is_some_and(|t| t.kind == TokenKind::Str)
        || (ident(q, &["const"]) && ident(q + 1, &["fn", "async", "unsafe", "extern"]))
    {
        q += 1;
    }
    let keyword = tok(file, code, q)?;
    let kind = *PUB_ITEMS.iter().find(|&&k| keyword.is_ident(k))?;
    let mut n = q + 1;
    if kind == "static" && ident(n, &["mut"]) {
        n += 1;
    }
    (tok(file, code, n)?.kind == TokenKind::Ident).then_some((kind, n))
}

/// The body of an `impl` block, a struct or an enum, and the type it
/// belongs to.
struct ItemBody<'a> {
    /// Code position of the opening bracket.
    open: usize,
    /// Code position just past the closing bracket.
    end: usize,
    /// The `impl`'s self type, or the struct's or enum's name.
    owner: &'a str,
    /// Whether this is an `impl` block.
    is_impl: bool,
    /// The last identifier of a trait impl's trait path (`Default` for
    /// `impl Default for Name`).
    trait_name: Option<&'a str>,
}

/// The non-test `impl`, struct and enum bodies of a file, in order.
fn item_bodies<'a>(file: &'a SourceFile, code: &[usize]) -> Vec<ItemBody<'a>> {
    let mut bodies = Vec::new();
    for p in 0..code.len() {
        if file.is_test_code(code[p]) || file.in_macro_def(code[p]) {
            continue;
        }
        if let Some(body) = impl_body(file, code, p) {
            bodies.push(body);
            continue;
        }
        let t = &file.tokens[code[p]];
        if !(t.is_ident("struct") || t.is_ident("enum")) {
            continue;
        }
        let Some(name) = tok(file, code, p + 1).filter(|n| n.kind == TokenKind::Ident) else {
            continue;
        };
        if let Some(open) = find_punct(file, code, p + 1, &['{', '(', ';'])
            .filter(|&open| !file.tokens[code[open]].is_punct(';'))
        {
            bodies.push(ItemBody {
                open,
                end: group_end(file, code, open),
                owner: name.text.as_str(),
                is_impl: false,
                trait_name: None,
            });
        }
    }
    bodies
}

/// When code position `p` is the `impl` of an item (not `impl Trait` in a
/// type), its body. The self type is the last identifier outside brackets
/// after `for` (or after `impl` in an inherent impl), up to the body or a
/// `where` clause.
fn impl_body<'a>(file: &'a SourceFile, code: &[usize], p: usize) -> Option<ItemBody<'a>> {
    if !tok(file, code, p)?.is_ident("impl") {
        return None;
    }
    let item_start = |t: &Token| {
        t.is_punct('}')
            || t.is_punct(';')
            || t.is_punct('{')
            || t.is_punct(']')
            || t.is_ident("unsafe")
    };
    if p > 0 && !item_start(tok(file, code, p - 1)?) {
        return None;
    }
    let (mut depth, mut q) = (0, p + 1);
    let (mut before_for, mut after_for, mut is_trait_impl) = (None, None, false);
    loop {
        let t = tok(file, code, q)?;
        if depth == 0 {
            if t.is_punct('{') || t.is_ident("where") {
                break;
            }
            if t.is_ident("for") {
                is_trait_impl = true;
            } else if t.kind == TokenKind::Ident && !t.is_ident("dyn") && !t.is_ident("mut") {
                let side = if is_trait_impl {
                    &mut after_for
                } else {
                    &mut before_for
                };
                *side = Some(t.text.as_str());
            }
        }
        depth += nesting(file, code, q, true);
        q += 1;
    }
    let open = find_punct(file, code, q, &['{'])?;
    let (owner, trait_name) = if is_trait_impl {
        (after_for?, before_for)
    } else {
        (before_for?, None)
    };
    Some(ItemBody {
        open,
        end: group_end(file, code, open),
        owner,
        is_impl: true,
        trait_name,
    })
}

/// The parameter names of the `pub fn` whose name is at code position `n`
/// when its return type names `Self` or `owner` (a constructor of
/// `owner`); otherwise none.
fn constructor_params<'a>(
    file: &'a SourceFile,
    code: &[usize],
    n: usize,
    owner: &str,
) -> Vec<&'a str> {
    let Some(open) = find_punct(file, code, n, &['(']) else {
        return Vec::new();
    };
    let close = group_end(file, code, open);
    let ret_end = find_punct(file, code, close, &['{', ';']).unwrap_or(code.len());
    let constructs = (close..ret_end).any(|q| {
        let t = &file.tokens[code[q]];
        t.is_ident("Self") || t.is_ident(owner)
    });
    let mut depth = 0;
    let mut params = Vec::new();
    for q in open..close {
        depth += nesting(file, code, q, true);
        let t = &file.tokens[code[q]];
        if constructs
            && depth == 1
            && t.kind == TokenKind::Ident
            && is_single_colon(file, code, q + 1)
        {
            params.push(t.text.as_str());
        }
    }
    params
}

/// True when code position `q` is a `:` that is not half of a `::`.
fn is_single_colon(file: &SourceFile, code: &[usize], q: usize) -> bool {
    tok(file, code, q).is_some_and(|t| t.is_punct(':'))
        && !tok(file, code, q + 1).is_some_and(|t| t.is_punct(':'))
        && !(q > 0 && file.tokens[code[q - 1]].is_punct(':'))
}

/// When code position `p` is the name of a struct literal `Name { … }` —
/// an expression, not a definition, an `impl` header, a return type or a
/// destructuring pattern — that name and the fields the literal sets:
/// `field: …` entries and `field` shorthands, up to an `..base` update.
fn struct_literal<'a>(
    file: &'a SourceFile,
    code: &[usize],
    p: usize,
) -> Option<(&'a str, Vec<&'a str>)> {
    let name = tok(file, code, p)?;
    if name.kind != TokenKind::Ident
        || !name.text.starts_with(|c: char| c.is_ascii_uppercase())
        || name.text == "Self"
        || !tok(file, code, p + 1)?.is_punct('{')
    {
        return None;
    }
    // Back over a `path::` prefix to what precedes the path.
    let mut s = p;
    while s >= 3
        && file.tokens[code[s - 1]].is_punct(':')
        && file.tokens[code[s - 2]].is_punct(':')
        && file.tokens[code[s - 3]].kind == TokenKind::Ident
    {
        s -= 3;
    }
    let declares = |t: &Token| {
        [
            "struct", "enum", "union", "impl", "for", "trait", "mod", "dyn", "let",
        ]
        .iter()
        .any(|&k| t.is_ident(k))
            || t.is_punct('>')
    };
    if s > 0 && declares(&file.tokens[code[s - 1]]) {
        return None;
    }
    let open = p + 1;
    let end = group_end(file, code, open);
    let pattern = tok(file, code, end).is_some_and(|t| t.is_punct('='))
        && !tok(file, code, end + 1).is_some_and(|t| t.is_punct('='));
    if pattern {
        return None;
    }
    let close = end - 1;
    let mut fields = Vec::new();
    let mut q = open + 1;
    while q < close {
        let t = &file.tokens[code[q]];
        if t.is_punct('.') && tok(file, code, q + 1).is_some_and(|t| t.is_punct('.')) {
            break;
        }
        let next = tok(file, code, q + 1);
        if t.kind == TokenKind::Ident
            && (q + 1 == close
                || next.is_some_and(|n| n.is_punct(','))
                || is_single_colon(file, code, q + 1))
        {
            fields.push(t.text.as_str());
        }
        // On to the entry after the next top-level comma.
        let mut depth = 0;
        while q < close {
            depth += nesting(file, code, q, false);
            if depth == 0 && file.tokens[code[q]].is_punct(',') {
                break;
            }
            q += 1;
        }
        q += 1;
    }
    Some((name.text.as_str(), fields))
}

/// When code position `p` names a variable the file binds to a struct —
/// `x: Name` (after any `&`, `mut` or `path::`), `let [mut] x = Name { …`
/// or `let [mut] x = Name::default()` — the variable and the struct.
fn binding<'a>(file: &'a SourceFile, code: &[usize], p: usize) -> Option<(&'a str, &'a str)> {
    let var = tok(file, code, p).filter(|t| t.kind == TokenKind::Ident)?;
    // The path starting at `q`: its segments, and the position after it.
    let path = |mut q: usize| {
        let mut segments = Vec::new();
        while let Some(t) = tok(file, code, q).filter(|t| t.kind == TokenKind::Ident) {
            segments.push(t.text.as_str());
            let colons = (1..=2).all(|i| tok(file, code, q + i).is_some_and(|t| t.is_punct(':')));
            if !colons {
                return (segments, q + 1);
            }
            q += 3;
        }
        (segments, q)
    };
    let is_struct =
        |name: &&str| name.starts_with(|c: char| c.is_ascii_uppercase()) && *name != "Self";
    let name = if is_single_colon(file, code, p + 1) {
        let mut q = p + 2;
        while tok(file, code, q).is_some_and(|t| t.is_punct('&') || t.is_ident("mut")) {
            q += 1;
        }
        path(q).0.last().copied()
    } else {
        let mut l = p.checked_sub(1)?;
        if file.tokens[code[l]].is_ident("mut") {
            l = l.checked_sub(1)?;
        }
        if !file.tokens[code[l]].is_ident("let") || !tok(file, code, p + 1)?.is_punct('=') {
            return None;
        }
        let (segments, after) = path(p + 2);
        match segments.as_slice() {
            [.., name] if tok(file, code, after).is_some_and(|t| t.is_punct('{')) => Some(*name),
            [.., name, "default"] if tok(file, code, after).is_some_and(|t| t.is_punct('(')) => {
                Some(*name)
            }
            _ => None,
        }
    };
    Some((var.text.as_str(), name.filter(is_struct)?))
}

/// When code position `p` is the `.` of a `.field =` assignment (or a
/// compound `.field += …`), the field's name.
fn assigned_field<'a>(file: &'a SourceFile, code: &[usize], p: usize) -> Option<&'a str> {
    if !tok(file, code, p)?.is_punct('.') || (p > 0 && file.tokens[code[p - 1]].is_punct('.')) {
        return None;
    }
    let field = tok(file, code, p + 1).filter(|t| t.kind == TokenKind::Ident)?;
    let mut q = p + 2;
    let compound = |t: &Token| t.kind == TokenKind::Punct && "+-*/%&|^".contains(t.text.as_str());
    if tok(file, code, q).is_some_and(compound) {
        q += 1;
    }
    let assigns = tok(file, code, q)?.is_punct('=')
        && !tok(file, code, q + 1).is_some_and(|t| t.is_punct('=') || t.is_punct('>'));
    assigns.then_some(field.text.as_str())
}

/// True when code position `q` is a `pub name:` field (a single colon).
fn is_pub_field(file: &SourceFile, code: &[usize], q: usize) -> bool {
    tok(file, code, q).is_some_and(|t| t.is_ident("pub"))
        && tok(file, code, q + 1).is_some_and(|t| t.kind == TokenKind::Ident)
        && tok(file, code, q + 2).is_some_and(|t| t.is_punct(':'))
        && !tok(file, code, q + 3).is_some_and(|t| t.is_punct(':'))
}

/// The code position of the first of `delimiters` at or after `from`.
fn find_punct(
    file: &SourceFile,
    code: &[usize],
    from: usize,
    delimiters: &[char],
) -> Option<usize> {
    (from..code.len()).find(|&q| delimiters.iter().any(|&c| file.tokens[code[q]].is_punct(c)))
}

/// Code positions of the names of the `pub` fields of the braced struct
/// whose name is at code position `n` (none for a tuple or unit struct).
fn named_fields(file: &SourceFile, code: &[usize], n: usize) -> Vec<usize> {
    match find_punct(file, code, n, &['{', '(', ';']) {
        Some(open) if file.tokens[code[open]].is_punct('{') => (open..group_end(file, code, open))
            .filter(|&q| is_pub_field(file, code, q))
            .map(|q| q + 1)
            .collect(),
        _ => Vec::new(),
    }
}

/// The code range `[start, end)` of the public signature that code
/// position `p` starts, when it starts one: a `pub fn`'s generics,
/// parameters, return type and bounds; a `pub` field's type; a `pub enum`'s
/// variants; a `pub` tuple struct's fields; a `pub type`'s right-hand side.
fn public_signature(file: &SourceFile, code: &[usize], p: usize) -> Option<(usize, usize)> {
    let (stops, start): (&[char], usize) = if is_pub_field(file, code, p) {
        (&[','], p + 3)
    } else {
        match pub_item(file, code, p)? {
            ("fn", n) => (&['{', ';'], n + 1),
            ("type", n) => (&[';'], n + 1),
            ("enum", n) => {
                let open = find_punct(file, code, n, &['{'])?;
                return Some((open, group_end(file, code, open)));
            }
            ("struct", n) => {
                let open = find_punct(file, code, n, &['{', '(', ';'])?;
                return file.tokens[code[open]]
                    .is_punct('(')
                    .then(|| (open, group_end(file, code, open)));
            }
            _ => return None,
        }
    };
    // To the first stop outside any bracket, or to the bracket that closes
    // the enclosing item.
    let mut depth = 0;
    let end = (start..code.len()).find(|&q| {
        if depth == 0 && stops.iter().any(|&c| file.tokens[code[q]].is_punct(c)) {
            return true;
        }
        depth += nesting(file, code, q, true);
        depth < 0
    });
    Some((start, end.unwrap_or(code.len())))
}

/// +1 at an opening bracket, −1 at a closing one, 0 elsewhere; with
/// `angles`, `<` and `>` (but not the `>` of `->`) count too.
fn nesting(file: &SourceFile, code: &[usize], q: usize, angles: bool) -> i32 {
    let t = &file.tokens[code[q]];
    let arrow = q > 0 && file.tokens[code[q - 1]].is_punct('-');
    if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') || (angles && t.is_punct('<')) {
        1
    } else if t.is_punct(')')
        || t.is_punct(']')
        || t.is_punct('}')
        || (angles && t.is_punct('>') && !arrow)
    {
        -1
    } else {
        0
    }
}

/// Given code position `open` at an opening bracket, the position just
/// past its matching close.
fn group_end(file: &SourceFile, code: &[usize], open: usize) -> usize {
    let mut depth = 0;
    (open..code.len())
        .find(|&q| {
            depth += nesting(file, code, q, false);
            depth == 0
        })
        .map_or(code.len(), |q| q + 1)
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
pub(crate) fn count_tests(ws: &Workspace) -> usize {
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
    fn struct_literals_are_told_from_definitions_headers_and_patterns() {
        let f = lib_file(
            "struct Options { a: u32 }\n\
             impl Default for crate::Options { fn default() -> Options { Options::new() } }\n\
             fn f(c: u32) -> Options {\n\
             let Options { a, .. } = g();\n\
             match h() { Options { b, .. } => {} }\n\
             if c > LIMIT { return c; }\n\
             x.c = 1; x.d += 2; x.e == 3; x.g => 4;\n\
             opts::Options { a: vec![1, 2], b: Inner { z: 0 }.z, c, ..Options::default() }\n\
             }",
        );
        let code = code_view(&f);
        let literals: Vec<_> = (0..code.len())
            .filter_map(|p| struct_literal(&f, &code, p))
            .filter(|(name, _)| *name != "LIMIT")
            .collect();
        assert_eq!(
            literals,
            vec![("Options", vec!["a", "b", "c"]), ("Inner", vec!["z"])]
        );
        let assigned: Vec<_> = (0..code.len())
            .filter_map(|p| assigned_field(&f, &code, p))
            .collect();
        assert_eq!(assigned, vec!["c", "d"]);
    }

    #[test]
    fn bindings_name_the_struct_a_variable_holds() {
        let f = lib_file(
            "fn f(a: &mut opts::Options, n: u32, s: Self) {\n\
             let mut b = opts::Options { x: 1 };\n\
             let c = Options::default();\n\
             let d: Weights = make();\n\
             let e = Options::new(); let g = h; let k = Vec::default();\n\
             }",
        );
        let code = code_view(&f);
        let bindings: Vec<_> = (0..code.len())
            .filter_map(|p| binding(&f, &code, p))
            .collect();
        assert_eq!(
            bindings,
            vec![
                ("a", "Options"),
                ("b", "Options"),
                ("c", "Options"),
                ("d", "Weights"),
                ("k", "Vec")
            ]
        );
    }

    #[test]
    fn impl_bodies_name_their_self_type_not_impl_trait_arguments() {
        let f = lib_file(
            "impl<T: Fn() -> u8> fmt::Display for Wrapper<T> where T: Copy { }\n\
             fn f(x: impl Iterator<Item = u32>) -> impl Sized { }\n\
             impl Engine { pub fn new(a: u32, b: Vec<u8>) -> Result<Self, E> { } }",
        );
        let code = code_view(&f);
        let bodies: Vec<_> = (0..code.len())
            .filter_map(|p| impl_body(&f, &code, p))
            .map(|b| (b.owner, b.trait_name))
            .collect();
        assert_eq!(bodies, vec![("Wrapper", Some("Display")), ("Engine", None)]);
        let new = (0..code.len())
            .find(|&p| f.tokens[code[p]].is_ident("new"))
            .unwrap();
        assert_eq!(constructor_params(&f, &code, new, "Engine"), vec!["a", "b"]);
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
