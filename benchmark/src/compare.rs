//! `--compare A B`: check every end-to-end metric of result set `B`
//! against result set `A` and the bounds in `BENCHMARK.json`.
//!
//! A result set is a directory of `<workload>.json` files as `run.sh`
//! writes them. One row per metric and workload; the exit code is non-zero
//! when any row reads `worse`, `B` failed a larger share of its operations
//! than `A`, or (same seed) `B`'s plan saves less than `A`'s.

use scope_analyze::json::{self, Value};
use std::path::Path;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The medians disagree with what the quartiles allow to be concluded.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much of `a`'s median `b`'s median is worse (negative = better).
pub fn worse_by(a: Measured, b: Measured, lower_is_better: bool) -> f64 {
    if a.median == 0.0 {
        return 0.0;
    }
    let delta = (b.median - a.median) / a.median.abs();
    if lower_is_better {
        delta
    } else {
        -delta
    }
}

/// `ok` when `b` is within `bound` of `a` and the repetitions of both sets
/// scatter by less than the bound (or all of `b`'s middle half beats all of
/// `a`'s); `worse` when it is beyond the bound and the quartile ranges do
/// not even touch; `unresolved` otherwise.
pub fn verdict(a: Measured, b: Measured, lower_is_better: bool, bound: f64) -> Verdict {
    let beyond = worse_by(a, b, lower_is_better) > bound;
    let overlap = a.q1 <= b.q3 && b.q1 <= a.q3;
    if beyond {
        return if overlap {
            Verdict::Unresolved
        } else {
            Verdict::Worse
        };
    }
    let spread = |m: Measured| {
        if m.median == 0.0 {
            0.0
        } else {
            (m.q3 - m.q1) / m.median.abs()
        }
    };
    let b_clearly_better = if lower_is_better {
        b.q3 < a.q1
    } else {
        b.q1 > a.q3
    };
    if spread(a).max(spread(b)) > bound && !b_clearly_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// `BENCHMARK.json`, from the repository root (`run.sh` runs the binary there).
const BENCHMARK_JSON: &str = "BENCHMARK.json";

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn field<'a>(doc: &'a Value, key: &str) -> Option<&'a Value> {
    doc.as_object()?.get(key)
}

pub fn num(doc: &Value, key: &str) -> Option<f64> {
    match field(doc, key)? {
        Value::Number(n) => Some(*n),
        _ => None,
    }
}

pub fn text<'a>(doc: &'a Value, key: &str) -> &'a str {
    match field(doc, key) {
        Some(Value::String(s)) => s,
        _ => "",
    }
}

pub fn list<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    match field(doc, key) {
        Some(Value::Array(items)) => items,
        _ => &[],
    }
}

fn measured(doc: &Value, metric: &str) -> Option<Measured> {
    let entry = field(field(doc, "metrics")?, metric)?;
    let median = num(entry, "value")?;
    Some(Measured {
        median,
        q1: num(entry, "q1").unwrap_or(median),
        q3: num(entry, "q3").unwrap_or(median),
    })
}

fn failed_share(doc: &Value) -> f64 {
    num(doc, "ops_failed").unwrap_or(0.0) / num(doc, "ops_total").unwrap_or(0.0).max(1.0)
}

fn compare(a_dir: &Path, b_dir: &Path) -> Result<bool, String> {
    let spec = load(Path::new(BENCHMARK_JSON))?;
    let mut pass = true;
    println!(
        "{:<14} {:<13} {:>14} {:>14} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "worse%", "bound%"
    );
    for workload in list(&spec, "workloads") {
        let workload = text(workload, "name");
        let a = load(&a_dir.join(format!("{workload}.json")))?;
        let b = load(&b_dir.join(format!("{workload}.json")))?;
        for metric in list(&spec, "end_to_end") {
            let name = text(metric, "name");
            let bound = num(metric, "bound").unwrap_or(0.0);
            let (Some(ma), Some(mb)) = (measured(&a, name), measured(&b, name)) else {
                return Err(format!(
                    "{workload}: metric {name} missing from a result file"
                ));
            };
            let lower = text(metric, "better") == "lower";
            let v = verdict(ma, mb, lower, bound);
            pass &= v != Verdict::Worse;
            println!(
                "{workload:<14} {name:<13} {:>14.5} {:>14} {:>14.5} {:>14} {:>8.2} {:>6.0}  {}",
                ma.median,
                format!("{:.4}..{:.4}", ma.q1, ma.q3),
                mb.median,
                format!("{:.4}..{:.4}", mb.q1, mb.q3),
                worse_by(ma, mb, lower) * 100.0,
                bound * 100.0,
                v.label()
            );
        }
        // Rows held to exact equality: the share of failed operations, and
        // the plan's benefit, which is deterministic for a seed.
        let mut exact = |name: &str, va: f64, vb: f64, ok: bool| {
            pass &= ok;
            println!(
                "{workload:<14} {name:<13} {va:>14.6} {:>14} {vb:>14.6} {:>14} {:>8} {:>6}  {}",
                "",
                "",
                "",
                "exact",
                if ok { "ok" } else { "worse" }
            );
        };
        let (fa, fb) = (failed_share(&a), failed_share(&b));
        exact("ops_failed", fa, fb, fb <= fa);
        let benefit = |doc: &Value| measured(doc, "plan_benefit_pct").map(|m| m.median);
        if let (Some(pa), Some(pb)) = (benefit(&a), benefit(&b)) {
            if num(&a, "seed") == num(&b, "seed") {
                exact("plan_benefit", pa, pb, pb >= pa);
            }
        }
    }
    Ok(pass)
}

pub fn run(a_dir: &Path, b_dir: &Path) -> ExitCode {
    match compare(a_dir, b_dir) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(median: f64, q1: f64, q3: f64) -> Measured {
        Measured { median, q1, q3 }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert_eq!(
            worse_by(m(10.0, 10.0, 10.0), m(12.0, 12.0, 12.0), true),
            0.2
        );
        assert_eq!(
            worse_by(m(10.0, 10.0, 10.0), m(12.0, 12.0, 12.0), false),
            -0.2
        );
        assert_eq!(worse_by(m(0.0, 0.0, 0.0), m(5.0, 5.0, 5.0), true), 0.0);
    }

    #[test]
    fn verdicts() {
        let a = m(100.0, 99.0, 101.0);
        // Within the bound, tight quartiles.
        assert_eq!(verdict(a, m(105.0, 104.0, 106.0), true, 0.10), Verdict::Ok);
        // Beyond the bound, ranges apart.
        assert_eq!(
            verdict(a, m(120.0, 118.0, 122.0), true, 0.10),
            Verdict::Worse
        );
        // Beyond the bound, but the quartile ranges overlap.
        assert_eq!(
            verdict(m(100.0, 90.0, 125.0), m(120.0, 100.0, 130.0), true, 0.10),
            Verdict::Unresolved
        );
        // Within the bound, but the repetitions scatter by more than it.
        assert_eq!(
            verdict(m(100.0, 80.0, 120.0), m(101.0, 99.0, 103.0), true, 0.10),
            Verdict::Unresolved
        );
        // ... unless B's middle half beats all of A's.
        assert_eq!(
            verdict(m(100.0, 80.0, 120.0), m(50.0, 49.0, 51.0), true, 0.10),
            Verdict::Ok
        );
        // Higher is better: a drop beyond the bound is worse, a rise is fine.
        assert_eq!(verdict(a, m(80.0, 79.0, 81.0), false, 0.10), Verdict::Worse);
        assert_eq!(verdict(a, m(130.0, 129.0, 131.0), false, 0.10), Verdict::Ok);
        // Single-valued metrics compare by threshold alone.
        assert_eq!(
            verdict(m(300.0, 300.0, 300.0), m(340.0, 340.0, 340.0), true, 0.10),
            Verdict::Worse
        );
    }
}
