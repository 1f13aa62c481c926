//! The metric names this benchmark reports (mirrored in `BENCHMARK.json`
//! and checked against it by a unit test), the per-run collector, and the
//! operation counter behind `attempted` / `failed`.

use crate::json::Value;
use crate::stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Display;

pub const WORKLOADS: [&str; 4] = ["plan_batch", "serve_steady", "serve_durable", "bill_replay"];

/// An end-to-end metric: `(name, unit, better, bound)`.
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("work_per_s", "1/s", "higher", 0.25),
    ("step_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.20),
    ("setup_s", "s", "lower", 0.25),
];

/// A per-layer metric: `(name, unit, better)`. A layer a workload does not
/// touch reports 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // The two end-to-end numbers of the ISSUE that no gated metric carries
    // (the README maps every ISSUE name to where it is read now).
    ("plan_benefit_pct", "%", "higher"),
    ("epoch_p90_ms", "ms", "lower"),
    ("table.generate_s", "s", "lower"),
    ("table.split_s", "s", "lower"),
    ("table.serialize_s", "s", "lower"),
    ("table.rows", "count", "higher"),
    ("table.bytes", "count", "higher"),
    ("compress.measure_s", "s", "lower"),
    ("compress.gzip_comp_mb_s", "MB/s", "higher"),
    ("compress.snappy_comp_mb_s", "MB/s", "higher"),
    ("compress.lz4_comp_mb_s", "MB/s", "higher"),
    ("compress.gzip_decomp_mb_s", "MB/s", "higher"),
    ("compress.snappy_decomp_mb_s", "MB/s", "higher"),
    ("compress.lz4_decomp_mb_s", "MB/s", "higher"),
    ("compress.gzip_ratio", "ratio", "higher"),
    ("compredict.sample_s", "s", "lower"),
    ("compredict.features_s", "s", "lower"),
    ("compredict.examples_s", "s", "lower"),
    ("compredict.train_s", "s", "lower"),
    ("compredict.predict_s", "s", "lower"),
    ("compredict.samples", "count", "higher"),
    ("compredict.ratio_mape_pct", "%", "lower"),
    ("learn.forest_fit_s", "s", "lower"),
    ("learn.forest_predict_s", "s", "lower"),
    ("learn.rows", "count", "higher"),
    ("datapart.gpart_s", "s", "lower"),
    ("datapart.ordered_dp_s", "s", "lower"),
    ("datapart.partitions_in", "count", "higher"),
    ("datapart.partitions_out", "count", "lower"),
    ("optassign.greedy_s", "s", "lower"),
    ("optassign.bnb_s", "s", "lower"),
    ("optassign.bnb_nodes", "count", "lower"),
    ("optassign.schedule_dp_s", "s", "lower"),
    ("optassign.tier_predictor_train_s", "s", "lower"),
    ("optassign.tier_predictor_predict_s", "s", "lower"),
    ("optassign.costtable_build_s", "s", "lower"),
    ("optassign.patch_rows_s", "s", "lower"),
    ("workload.enterprise_generate_s", "s", "lower"),
    ("workload.query_generate_s", "s", "lower"),
    ("workload.daily_records", "count", "higher"),
    ("core.run_all_policies_s", "s", "lower"),
    ("core.lifecycle_s", "s", "lower"),
    ("core.cpu_s_per_kusd_saved", "s/kUSD", "lower"),
    ("serve.register_s", "s", "lower"),
    ("serve.ingest_s", "s", "lower"),
    ("serve.ingest_events", "count", "higher"),
    ("serve.advance_s", "s", "lower"),
    ("serve.resolve_cold_s", "s", "lower"),
    ("serve.resolve_steady_s", "s", "lower"),
    ("serve.resolve_t1_s", "s", "lower"),
    ("serve.checkpoint_s", "s", "lower"),
    ("serve.checkpoint_bytes", "count", "lower"),
    ("serve.rows_patched", "count", "lower"),
    ("serve.patch_ratio", "ratio", "lower"),
    ("serve.retier_decisions", "count", "higher"),
    ("serve.decisions_per_s", "1/s", "higher"),
    ("serve.quarantined_events", "count", "lower"),
    ("serve.restore_s", "s", "lower"),
    ("serve.rss_bytes_per_object", "B", "lower"),
    ("serve.journal_ingest_s", "s", "lower"),
    ("serve.journal_advance_s", "s", "lower"),
    ("serve.checkpoint_durable_s", "s", "lower"),
    ("serve.recover_s", "s", "lower"),
    ("serve.journal_overhead_pct", "%", "lower"),
    ("serve.journal_mem_overhead_pct", "%", "lower"),
    ("serve.ingest_allocs", "count", "lower"),
    ("serve.resolve_allocs", "count", "lower"),
    ("serve.checkpoint_allocs", "count", "lower"),
    ("serve.journal_ingest_allocs", "count", "lower"),
    ("wal.storage_append_s", "s", "lower"),
    ("wal.storage_appends", "count", "lower"),
    ("wal.bytes_appended", "count", "lower"),
    ("wal.storage_sync_s", "s", "lower"),
    ("wal.storage_syncs", "count", "lower"),
    ("wal.storage_write_atomic_s", "s", "lower"),
    ("wal.checkpoint_bytes_written", "count", "lower"),
    ("wal.storage_deletes", "count", "lower"),
    ("wal.bytes_per_event", "B", "lower"),
    ("wal.write_amp", "ratio", "lower"),
    ("wal.encode_s", "s", "lower"),
    ("wal.crc_mb_s", "MB/s", "higher"),
    ("wal.decode_s", "s", "lower"),
    ("wal.replayed_records", "count", "lower"),
    ("wal.recover_read_bytes", "count", "lower"),
    ("cloudsim.place_s", "s", "lower"),
    ("cloudsim.build_columns_s", "s", "lower"),
    ("cloudsim.run_days_s", "s", "lower"),
    ("cloudsim.run_monthly_s", "s", "lower"),
    ("cloudsim.run_columns_s", "s", "lower"),
    ("cloudsim.run_columns_t1_s", "s", "lower"),
    ("cloudsim.thread_speedup", "ratio", "higher"),
    ("cloudsim.dropped_events", "count", "lower"),
    ("cloudsim.run_columns_small_events_per_s", "1/s", "higher"),
    ("cloudsim.filter_day_range_s", "s", "lower"),
    ("cloudsim.parallel_map_overhead_us", "us", "lower"),
    ("cloudsim.run_columns_allocs", "count", "lower"),
    ("harness.trace_overhead_pct", "%", "lower"),
    ("harness.span_coverage_pct", "%", "higher"),
    ("harness.verify_s", "s", "lower"),
    ("harness.spans", "count", "lower"),
    ("harness.reps", "count", "higher"),
    ("harness.threads", "count", "higher"),
    ("harness.nproc", "count", "higher"),
];

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub unit: &'static str,
    pub summary: Summary,
}

/// Marker for a repetition abandoned because the program returned an error
/// or a check failed; the failure is already counted in [`Run`].
#[derive(Debug)]
pub struct Failed;

/// Everything one process run collects.
#[derive(Debug, Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for the log.
    pub failures: Vec<String>,
    metrics: BTreeMap<&'static str, Metric>,
    /// The spans of a traced run, kept for the trace file.
    pub spans: Vec<crate::trace::Span>,
}

/// The per-layer metric `<span>_s`, if one is declared.
pub fn seconds_metric_of_span(span: &str) -> Option<&'static str> {
    PER_LAYER
        .iter()
        .map(|&(name, _, _)| name)
        .find(|name| name.strip_suffix("_s") == Some(span))
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|&(n, unit, _, _)| (n, unit))
        .chain(PER_LAYER.iter().map(|&(n, unit, _)| (n, unit)))
        .find(|&(n, _)| n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric {name} is not declared in metrics.rs"))
}

impl Run {
    fn fail(&mut self, what: impl Display) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what.to_string());
        }
    }

    /// Count one `Result` returned by the program.
    pub fn op<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Result<T, Failed> {
        self.attempted += 1;
        result.map_err(|e| {
            self.fail(format_args!("{what}: {e}"));
            Failed
        })
    }

    /// Count one correctness check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.fail(format_args!("check failed: {what}"));
        }
    }

    /// Record a metric from repeated samples (median and quartiles).
    pub fn samples(&mut self, name: &'static str, values: &[f64]) {
        self.summary(name, crate::stats::summarize(values));
    }

    /// Record a single-valued metric (a count, a ratio, one probe).
    pub fn value(&mut self, name: &'static str, value: f64) {
        self.summary(
            name,
            Summary {
                median: value,
                q1: value,
                q3: value,
                n: 1,
            },
        );
    }

    pub fn summary(&mut self, name: &'static str, summary: Summary) {
        let unit = unit_of(name);
        self.metrics.insert(name, Metric { unit, summary });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    /// `(name, unit, value)` of what a run reports: every end-to-end metric
    /// for an untraced run, every per-layer metric for a traced one (0 for a
    /// layer the workload does not touch).
    pub fn reported(&self, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
        let names: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|&(n, unit, _)| (n, unit)).collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, unit, _, _)| (n, unit))
                .collect()
        };
        names
            .into_iter()
            .map(|(name, unit)| (name, unit, self.get(name).map_or(0.0, |m| m.summary.median)))
            .collect()
    }

    /// The object the driver reads from the last line of standard output.
    pub fn driver_line(&self, traced: bool) -> Value {
        let metrics = self
            .reported(traced)
            .into_iter()
            .map(|(name, unit, value)| {
                let entry = Value::obj([
                    ("value", Value::Num(value)),
                    ("unit", Value::Str(unit.into())),
                ]);
                (name, entry)
            });
        Value::obj([
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
    }

    /// Every recorded metric with its quartiles and sample count, for the
    /// result file `--compare` reads.
    pub fn detailed_metrics(&self) -> Value {
        Value::obj(self.metrics.iter().map(|(name, m)| {
            let s = m.summary;
            let entry = Value::obj([
                ("value", Value::Num(s.median)),
                ("unit", Value::Str(m.unit.into())),
                ("q1", Value::Num(s.q1)),
                ("q3", Value::Num(s.q3)),
                ("n", Value::Num(s.n as f64)),
            ]);
            (*name, entry)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::{self, field, list, num};
    use scope_analyze::json::parse;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.0, m.1))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
            .chain(WORKLOADS.iter().map(|w| (*w, "count")));
        for (name, unit) in all {
            assert!(seen.insert(name), "{name} declared twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// workloads and metrics this binary emits.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            list(&doc, key)
                .iter()
                .map(|entry| compare::text(entry, "name").to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        let e2e: Vec<(&str, &str, &str, f64)> = list(&doc, "end_to_end")
            .iter()
            .map(|m| {
                (
                    compare::text(m, "name"),
                    compare::text(m, "unit"),
                    compare::text(m, "better"),
                    num(m, "bound").unwrap_or(-1.0),
                )
            })
            .collect();
        assert_eq!(e2e, END_TO_END);
        let layers: Vec<(&str, &str, &str)> = list(&doc, "per_layer")
            .iter()
            .map(|m| {
                (
                    compare::text(m, "name"),
                    compare::text(m, "unit"),
                    compare::text(m, "better"),
                )
            })
            .collect();
        assert_eq!(layers, PER_LAYER);
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let mut run = Run::default();
        run.check("fine", true);
        let _ = run.op::<(), _>("broken", Err("boom"));
        run.samples("work_per_s", &[1.0, 3.0, 2.0]);
        run.value("harness.spans", 7.0);
        let text = run.driver_line(false).to_compact();
        assert!(text.starts_with(r#"{"correct":false,"attempted":2,"failed":1,"metrics":{"#));
        let line = parse(&text).unwrap();
        assert_eq!(line.as_object().unwrap().len(), 4);
        let metrics = field(&line, "metrics").unwrap();
        assert_eq!(metrics.as_object().unwrap().len(), END_TO_END.len());
        let work = field(metrics, "work_per_s").unwrap();
        assert_eq!(num(work, "value"), Some(2.0));
        assert_eq!(compare::text(work, "unit"), "1/s");

        let traced = parse(&run.driver_line(true).to_compact()).unwrap();
        let layer = field(&traced, "metrics").unwrap();
        assert_eq!(layer.as_object().unwrap().len(), PER_LAYER.len());
        let value = |name: &str| num(field(layer, name).unwrap(), "value");
        assert_eq!(value("harness.spans"), Some(7.0));
        assert_eq!(value("wal.encode_s"), Some(0.0));
        assert_eq!(run.failures, ["broken: boom"]);
    }
}
