//! Drives every rule over the fixture mini-workspaces under
//! `tests/fixtures/`: each rule has a positive snippet (must be flagged),
//! a negative snippet (must stay silent) and — where waivers make sense —
//! a waived snippet (flagged site suppressed by an inline waiver).
//!
//! Fixture files are lexed by the analyzer but never compiled by cargo
//! (the workspace walker skips subdirectories of `tests/`), so they are
//! free to be non-compiling and to carry waivers without spending the
//! real workspace's budget.

use scope_analyze::{analyze_rules, Report};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn run(fixture: &str, rules: &[&str]) -> Report {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    let active: BTreeSet<&str> = rules.iter().copied().collect();
    analyze_rules(&root, &active).expect("fixture workspace loads")
}

fn messages(report: &Report) -> Vec<String> {
    report
        .findings
        .iter()
        .map(|f| format!("{}:{} [{}] {}", f.file, f.line, f.rule, f.message))
        .collect()
}

#[test]
fn unordered_iteration_pos_neg_waived() {
    let report = run("unordered", &["no-unordered-iteration"]);
    let msgs = messages(&report);
    assert_eq!(report.findings.len(), 2, "{msgs:?}");
    assert!(report.findings.iter().all(|f| f.file.ends_with("pos.rs")));
    assert!(msgs.iter().any(|m| m.contains("for … in m")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("m.keys()")), "{msgs:?}");
    // The waived.rs site was suppressed by its inline waiver.
    assert_eq!(report.waivers_used, 1);
}

#[test]
fn wallclock_pos_neg_waived_and_bench_exempt() {
    let report = run("wallclock", &["no-wallclock-in-logic"]);
    let msgs = messages(&report);
    assert_eq!(report.findings.len(), 1, "{msgs:?}");
    assert!(report.findings[0].file.ends_with("pos.rs"));
    assert_eq!(report.findings[0].rule, "no-wallclock-in-logic");
    assert_eq!(report.waivers_used, 1);
}

#[test]
fn raw_threads_pos_neg_waived() {
    let report = run("threads", &["no-raw-threads"]);
    let msgs = messages(&report);
    assert_eq!(report.findings.len(), 1, "{msgs:?}");
    assert!(report.findings[0].file.ends_with("pos.rs"));
    assert!(msgs[0].contains("std::thread"), "{msgs:?}");
    assert_eq!(report.waivers_used, 1);
}

#[test]
fn fs_confinement_pos_neg_waived_and_backend_exempt() {
    let report = run("fs-confinement", &["fs-confinement"]);
    let msgs = messages(&report);
    assert_eq!(report.findings.len(), 2, "{msgs:?}");
    assert!(report.findings.iter().all(|f| f.file.ends_with("pos.rs")));
    assert!(msgs.iter().any(|m| m.contains("std::fs")), "{msgs:?}");
    assert!(
        msgs.iter().any(|m| m.contains("direct file handle")),
        "{msgs:?}"
    );
    // waived.rs was suppressed; wal/src/file.rs and test code are exempt.
    assert_eq!(report.waivers_used, 1);
}

#[test]
fn panic_surface_counts_match_a_correct_ratchet() {
    let report = run("panic-ok", &["panic-surface"]);
    let msgs = messages(&report);
    assert!(report.findings.is_empty(), "{msgs:?}");
    // Two live sites; the waived expect and the test-region unwrap are not
    // counted.
    assert_eq!(report.panic_counts.get("scope-app"), Some(&2));
    assert_eq!(report.waivers_used, 1);
}

#[test]
fn panic_surface_flags_growth_and_malformed_rows() {
    let report = run("panic-grew", &["panic-surface"]);
    let msgs = messages(&report);
    assert_eq!(report.findings.len(), 2, "{msgs:?}");
    assert!(msgs
        .iter()
        .any(|m| m.contains("grew: 2 sites vs ratchet 1")));
    assert!(msgs.iter().any(|m| m.contains("malformed ratchet line")));
}

#[test]
fn panic_surface_flags_stale_rows_and_ghost_crates() {
    let report = run("panic-stale", &["panic-surface"]);
    let msgs = messages(&report);
    assert_eq!(report.findings.len(), 2, "{msgs:?}");
    assert!(msgs
        .iter()
        .any(|m| m.contains("stale: 2 sites vs committed 5")));
    assert!(msgs.iter().any(|m| m.contains("unknown crate scope-ghost")));
}

#[test]
fn panic_surface_requires_a_committed_ratchet() {
    // The unordered fixture has no panic-ratchet.txt at its root.
    let report = run("unordered", &["panic-surface"]);
    let msgs = messages(&report);
    assert_eq!(report.findings.len(), 1, "{msgs:?}");
    assert!(msgs[0].contains("missing ratchet file"), "{msgs:?}");
}

#[test]
fn oracle_discipline_pos_neg_waived() {
    let report = run("oracle", &["oracle-discipline"]);
    let msgs = messages(&report);
    assert_eq!(report.findings.len(), 2, "{msgs:?}");
    assert!(
        msgs.iter().any(|m| m.contains("unused_reference")),
        "{msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("forgotten_helper")),
        "{msgs:?}"
    );
    // pinned_helper (exercised) and legacy_reference (waived) are absent.
    assert!(
        !msgs.iter().any(|m| m.contains("pinned_helper")),
        "{msgs:?}"
    );
    assert!(
        !msgs.iter().any(|m| m.contains("legacy_reference")),
        "{msgs:?}"
    );
    assert_eq!(report.waivers_used, 1);
}

#[test]
fn dead_pub_pos_neg_waived_and_exempt() {
    let report = run("dead-pub", &["dead-pub"]);
    let msgs = messages(&report);
    assert_eq!(report.findings.len(), 2, "{msgs:?}");
    assert!(report
        .findings
        .iter()
        .all(|f| f.file == "crates/lib/src/lib.rs"));
    // Named by nothing, or only by a comment in another crate.
    assert!(
        msgs.iter().any(|m| m.contains("`pub fn unnamed_anywhere`")),
        "{msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("`pub fn only_in_a_comment`")),
        "{msgs:?}"
    );
    // Another crate, the crate's tests/, src/bin, src/main.rs, a root
    // example and benchmark/src each count as a caller; reference.rs,
    // #[cfg(test)] code, macro templates and pub(crate) are out of scope.
    for quiet in [
        "used_by_",
        "app_entry",
        "oracle_nobody_calls",
        "test_helper",
        "from_a_macro",
        "internal",
    ] {
        assert!(!msgs.iter().any(|m| m.contains(quiet)), "{quiet}: {msgs:?}");
    }
    assert_eq!(report.waivers_used, 1);
}

#[test]
fn dead_pub_types_constants_and_knobs() {
    let report = run("dead-pub-types", &["dead-pub"]);
    let msgs = messages(&report);
    assert_eq!(report.findings.len(), 4, "{msgs:?}");
    assert!(report
        .findings
        .iter()
        .all(|f| f.file == "crates/lib/src/lib.rs"));
    // Named only inside the crate, associated constants included.
    for dead in [
        "`pub struct InternalOnly`",
        "`pub const LIMIT`",
        "`pub const CAP`",
        "knob `Options::unit_test_only`",
    ] {
        assert!(msgs.iter().any(|m| m.contains(dead)), "{dead}: {msgs:?}");
    }
    // Exposed by a public signature (return type, field type, variant
    // payload, type alias), named by another crate or its tests, a
    // derived-`Default` field, test code, pub(crate) and a waived item.
    for quiet in [
        "ExposedBy",
        "Alias",
        "Holder`",
        "Outcome",
        "set_by_app_tests",
        "never_set",
        "Derived",
        "TestOnly",
        "CrateOnly",
        "Waived",
        "`pub struct Options`",
    ] {
        assert!(!msgs.iter().any(|m| m.contains(quiet)), "{quiet}: {msgs:?}");
    }
    assert_eq!(report.waivers_used, 1);
}

#[test]
fn dead_pub_knobs_by_setter_and_types_by_live_exposure() {
    let report = run("dead-pub-setters", &["dead-pub"]);
    let msgs = messages(&report);
    assert_eq!(report.findings.len(), 6, "{msgs:?}");
    assert!(report
        .findings
        .iter()
        .all(|f| f.file == "crates/lib/src/lib.rs"));
    // Named outside only in another struct's literal or assignment, only
    // read, only destructured, or taken by no constructor; a type only its
    // own method returns.
    for dead in [
        "knob `Options::named_elsewhere`",
        "knob `Options::assigned_on_another`",
        "knob `Options::read_only`",
        "knob `Options::destructured`",
        "knob `Weights::gamma`",
        "`pub struct SelfMade`",
    ] {
        assert!(msgs.iter().any(|m| m.contains(dead)), "{dead}: {msgs:?}");
    }
    // Set in its own struct's literal, by shorthand, before `..base`, by
    // assignment to a literal's binding, a `default()` or an `&mut`
    // parameter, or by a public constructor's parameter; a type named
    // outside, and one a method of such a type exposes.
    for quiet in [
        "set_in_literal",
        "set_by_shorthand",
        "set_before_base",
        "set_by_assignment",
        "set_on_a_default",
        "set_through_a_parameter",
        "alpha",
        "NamedOutside",
        "Part",
    ] {
        assert!(!msgs.iter().any(|m| m.contains(quiet)), "{quiet}: {msgs:?}");
    }
}

#[test]
fn shim_surface_pos_neg_waived() {
    let report = run("shim", &["shim-surface"]);
    let msgs = messages(&report);
    assert_eq!(report.findings.len(), 2, "{msgs:?}");
    assert!(report.findings.iter().all(|f| f.file.ends_with("pos.rs")));
    assert!(msgs.iter().any(|m| m.contains("Missing")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("AlsoMissing")), "{msgs:?}");
    assert_eq!(report.waivers_used, 1);
}

#[test]
fn ci_floor_matches_static_recount() {
    let ok = run("ci-floor-ok", &["ci-floor-consistency"]);
    assert!(ok.findings.is_empty(), "{:?}", messages(&ok));

    let drift = run("ci-floor-drift", &["ci-floor-consistency"]);
    let msgs = messages(&drift);
    assert_eq!(drift.findings.len(), 1, "{msgs:?}");
    assert!(msgs[0].contains("min_tests=7"), "{msgs:?}");
    assert!(msgs[0].contains("is 3"), "{msgs:?}");
    assert_eq!(drift.findings[0].file, "ci.sh");
    assert_eq!(drift.findings[0].line, 3);
}

#[test]
fn waiver_budget_flags_unknown_reasonless_and_unused() {
    let report = run(
        "waiver-misuse",
        &["no-unordered-iteration", "waiver-budget"],
    );
    let msgs = messages(&report);
    assert_eq!(report.findings.len(), 3, "{msgs:?}");
    assert!(report.findings.iter().all(|f| f.rule == "waiver-budget"));
    assert!(
        msgs.iter().any(|m| m.contains("unknown rule 'not-a-rule'")),
        "{msgs:?}"
    );
    assert!(msgs.iter().any(|m| m.contains("has no reason")), "{msgs:?}");
    assert!(
        msgs.iter().any(|m| m.contains("suppresses nothing")),
        "{msgs:?}"
    );
    // The reason-less waiver still suppressed its iteration finding.
    assert!(!msgs.iter().any(|m| m.contains("hash-ordered")), "{msgs:?}");
    assert_eq!(report.waivers_used, 1);
    assert_eq!(report.waivers_total, 3);
}

#[test]
fn waiver_budget_caps_total_waivers() {
    let report = run(
        "waiver-overbudget",
        &["no-unordered-iteration", "waiver-budget"],
    );
    let msgs = messages(&report);
    assert_eq!(report.findings.len(), 1, "{msgs:?}");
    assert_eq!(report.findings[0].rule, "waiver-budget");
    assert!(
        msgs[0].contains("11 inline waivers exceed the budget of 10"),
        "{msgs:?}"
    );
    // All eleven waivers are legitimate individually: each suppressed a site.
    assert_eq!(report.waivers_used, 11);
}

#[test]
fn rule_filtering_only_runs_requested_rules() {
    // The threads fixture trips no-raw-threads, but an unrelated rule
    // selection must not surface it.
    let report = run("threads", &["no-wallclock-in-logic"]);
    assert!(report.findings.is_empty(), "{:?}", messages(&report));
}
