//! What every `*_bench` bin shares: the `--quick/--json/--out` command
//! line and min-of-reps wall-clock timing.

use std::time::Instant;

/// The command line of a bench bin:
/// `[--json] [--quick] [--out PATH]` plus the bin's own `--flag VALUE`
/// options.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    /// Run the small CI smoke configuration.
    pub quick: bool,
    /// Also write the results as JSON to [`BenchArgs::out`].
    pub json: bool,
    /// Where the JSON goes.
    pub out: String,
    values: Vec<(String, String)>,
}

impl BenchArgs {
    /// Parse the process arguments. `default_out` is the JSON path when
    /// `--out` is absent; `valued` names the bin's extra options, each
    /// taking one value.
    pub fn parse(default_out: &str, valued: &[&str]) -> Result<BenchArgs, String> {
        Self::parse_from(std::env::args().skip(1), default_out, valued)
    }

    fn parse_from(
        mut args: impl Iterator<Item = String>,
        default_out: &str,
        valued: &[&str],
    ) -> Result<BenchArgs, String> {
        let mut parsed = BenchArgs {
            quick: false,
            json: false,
            out: default_out.to_string(),
            values: Vec::new(),
        };
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => parsed.quick = true,
                "--json" => parsed.json = true,
                flag if flag == "--out" || valued.contains(&flag) => {
                    let value = args
                        .next()
                        .ok_or_else(|| format!("{flag} requires a path"))?;
                    if flag == "--out" {
                        parsed.out = value;
                    } else {
                        parsed.values.push((arg, value));
                    }
                }
                other => {
                    let expected = ["--json", "--quick", "--out"]
                        .iter()
                        .chain(valued)
                        .copied()
                        .collect::<Vec<_>>()
                        .join(" / ");
                    return Err(format!("unknown argument {other} (expected {expected})"));
                }
            }
        }
        Ok(parsed)
    }

    /// The value of extra option `flag` (the last one given), if any.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let found = self.values.iter().rev().find(|(name, _)| name == flag);
        found.map(|(_, value)| value.as_str())
    }
}

/// Min-of-reps wall clock (seconds) of `f`, returning the last result.
/// Runs at least once even for `reps == 0`.
pub fn time_min<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    match time_min_try(reps, || Ok::<R, std::convert::Infallible>(f())) {
        Ok(timed) => timed,
        Err(never) => match never {},
    }
}

/// [`time_min`] for fallible work: the first error aborts the bench.
pub fn time_min_try<R, E>(reps: usize, mut f: impl FnMut() -> Result<R, E>) -> Result<(f64, R), E> {
    let t = Instant::now();
    let mut out = f()?;
    let mut best = t.elapsed().as_secs_f64();
    for _ in 1..reps {
        let t = Instant::now();
        out = f()?;
        best = best.min(t.elapsed().as_secs_f64());
    }
    Ok((best, out))
}

/// Minimum over `reps` runs (at least one) of an `f` that times its own
/// region and returns the seconds — for replays whose setup must stay
/// outside the clock.
pub fn min_seconds<E>(reps: usize, mut f: impl FnMut() -> Result<f64, E>) -> Result<f64, E> {
    let mut best = f()?;
    for _ in 1..reps {
        best = best.min(f()?);
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], valued: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::parse_from(args.iter().map(|a| a.to_string()), "BENCH_0.json", valued)
    }

    #[test]
    fn arguments_parse_and_unknown_ones_are_named() {
        let args = parse(&["--quick", "--out", "x.json", "--dir", "d"], &["--dir"]).unwrap();
        assert!(args.quick && !args.json);
        assert_eq!(args.out, "x.json");
        assert_eq!(args.value("--dir"), Some("d"));
        assert_eq!(parse(&[], &[]).unwrap().out, "BENCH_0.json");
        assert_eq!(
            parse(&["--dir", "d"], &[]).unwrap_err(),
            "unknown argument --dir (expected --json / --quick / --out)"
        );
        assert_eq!(
            parse(&["--out"], &["--dir"]).unwrap_err(),
            "--out requires a path"
        );
    }

    #[test]
    fn timers_return_the_last_result_and_stop_at_the_first_error() {
        let mut calls = 0;
        let (secs, last) = time_min(3, || {
            calls += 1;
            calls
        });
        assert!(secs >= 0.0);
        assert_eq!(last, 3);
        let mut calls = 0;
        let failed: Result<(f64, u32), &str> = time_min_try(3, || {
            calls += 1;
            if calls == 2 {
                Err("boom")
            } else {
                Ok(calls)
            }
        });
        assert_eq!(failed, Err("boom"));
        assert_eq!(min_seconds(0, || Ok::<f64, ()>(2.0)), Ok(2.0));
    }
}
