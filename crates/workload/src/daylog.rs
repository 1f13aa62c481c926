//! Day-resolution access log: the source of truth the monthly series is a
//! view of.
//!
//! The tier optimizer's *features* stay monthly (the paper aggregates
//! "monthly read and write accesses for the last few months"), but billing
//! is day-granular: storage is pro-rated by days and early deletion is
//! billed per day of unmet residency. [`DailyAccessLog`] records accesses
//! at day resolution; the tests aggregate it back into the monthly
//! [`AccessSeries`](crate::AccessSeries) the generator also emits, and
//! require the two to agree.

#[cfg(test)]
use crate::access_log::{AccessSeries, MonthlyAccess};
use serde::{Deserialize, Serialize};

/// Days per billing month used when aggregating day-stamped records into
/// monthly buckets (mirrors `scope_cloudsim::timeline::DAYS_PER_MONTH`; the
/// constant is duplicated because this crate does not depend on the cloud
/// substrate, and `scope-core` asserts the two equal at compile time).
pub const DAYS_PER_MONTH: u32 = 30;

/// Read/write counts of one dataset on one day.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DailyAccess {
    /// Dataset id the accesses belong to.
    pub dataset: usize,
    /// Day index (0-based) from the start of the simulated history.
    pub day: u32,
    /// Number of read accesses on this day.
    pub reads: f64,
    /// Number of write accesses on this day.
    pub writes: f64,
    /// Average fraction of the dataset scanned per read (1.0 = full scans).
    pub read_fraction: f64,
}

/// Day-resolution access log over a horizon of consecutive days.
///
/// Records are stored in insertion order; the generator emits them sorted
/// by `(dataset, day)` but the log itself imposes no ordering.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DailyAccessLog {
    records: Vec<DailyAccess>,
    horizon_days: u32,
}

impl DailyAccessLog {
    /// Create an empty log covering `horizon_days` days.
    pub fn new(horizon_days: u32) -> Self {
        DailyAccessLog {
            records: Vec::new(),
            horizon_days,
        }
    }

    /// Number of days covered.
    pub fn horizon_days(&self) -> u32 {
        self.horizon_days
    }

    /// Append a record. Records at or beyond the horizon are ignored, like
    /// out-of-range months in [`AccessSeries::set`](crate::AccessSeries::set).
    pub fn push(&mut self, record: DailyAccess) {
        if record.day < self.horizon_days {
            self.records.push(record);
        }
    }

    /// The recorded day-stamped accesses.
    pub fn records(&self) -> &[DailyAccess] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total reads of one dataset over a day range `[from, to)`.
    pub fn total_reads(&self, dataset: usize, from_day: u32, to_day: u32) -> f64 {
        self.records
            .iter()
            .filter(|r| r.dataset == dataset && r.day >= from_day && r.day < to_day)
            .map(|r| r.reads)
            .sum()
    }

    /// Aggregate the day-stamped records into the legacy monthly series:
    /// reads and writes are summed per `DAYS_PER_MONTH`-day bucket and the
    /// monthly read fraction is the read-weighted average of the daily
    /// fractions (1.0 when a month has no reads, matching
    /// [`MonthlyAccess::default`]-adjacent semantics of "fraction is
    /// irrelevant without reads"). Tests check the generator's monthly
    /// series against it.
    #[cfg(test)]
    pub(crate) fn monthly_view(&self) -> AccessSeries {
        let months = self.horizon_days.div_ceil(DAYS_PER_MONTH);
        let mut series = AccessSeries::new(months);
        // (reads, writes, volume-weighted fraction) per (dataset, month).
        let mut acc: std::collections::BTreeMap<(usize, u32), (f64, f64, f64)> =
            std::collections::BTreeMap::new();
        for r in &self.records {
            let month = r.day / DAYS_PER_MONTH;
            let e = acc.entry((r.dataset, month)).or_insert((0.0, 0.0, 0.0));
            e.0 += r.reads;
            e.1 += r.writes;
            e.2 += r.reads * r.read_fraction;
        }
        for ((dataset, month), (reads, writes, weighted)) in acc {
            let read_fraction = if reads > 0.0 { weighted / reads } else { 1.0 };
            series.set(
                dataset,
                month,
                MonthlyAccess {
                    reads,
                    writes,
                    read_fraction,
                },
            );
        }
        series
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(dataset: usize, day: u32, reads: f64, writes: f64, fraction: f64) -> DailyAccess {
        DailyAccess {
            dataset,
            day,
            reads,
            writes,
            read_fraction: fraction,
        }
    }

    #[test]
    fn push_and_horizon_filtering() {
        let mut log = DailyAccessLog::new(60);
        log.push(record(0, 0, 1.0, 0.0, 1.0));
        log.push(record(0, 59, 2.0, 1.0, 0.5));
        log.push(record(0, 60, 99.0, 0.0, 1.0)); // beyond horizon: dropped
        assert_eq!(log.len(), 2);
        assert_eq!(log.horizon_days(), 60);
        assert!(!log.is_empty());
        assert_eq!(log.total_reads(0, 0, 60), 3.0);
        assert_eq!(log.total_reads(0, 30, 60), 2.0);
    }

    #[test]
    fn monthly_view_buckets_by_30_days() {
        let mut log = DailyAccessLog::new(90);
        log.push(record(0, 3, 4.0, 1.0, 1.0));
        log.push(record(0, 29, 6.0, 0.0, 0.5));
        log.push(record(0, 30, 8.0, 2.0, 0.25));
        log.push(record(1, 75, 1.0, 0.0, 1.0));
        let series = log.monthly_view();
        assert_eq!(series.months(), 3);
        let m0 = series.get(0, 0);
        assert_eq!(m0.reads, 10.0);
        assert_eq!(m0.writes, 1.0);
        // Read-weighted fraction: (4*1.0 + 6*0.5) / 10.
        assert!((m0.read_fraction - 0.7).abs() < 1e-12);
        assert_eq!(series.get(0, 1).reads, 8.0);
        assert_eq!(series.get(1, 2).reads, 1.0);
        assert_eq!(series.get(1, 0).reads, 0.0);
    }

    #[test]
    fn monthly_view_of_writes_only_day_keeps_default_fraction() {
        let mut log = DailyAccessLog::new(30);
        log.push(record(0, 5, 0.0, 3.0, 0.4));
        let m = log.monthly_view().get(0, 0);
        assert_eq!(m.writes, 3.0);
        assert_eq!(m.reads, 0.0);
        assert_eq!(m.read_fraction, 1.0);
    }

    #[test]
    fn empty_log_views_as_empty_series() {
        let log = DailyAccessLog::new(45);
        let series = log.monthly_view();
        assert_eq!(series, AccessSeries::new(2));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The derived monthly view is *exactly* the independent
            /// aggregation of the day-stamped records: reads and writes sum
            /// per 30-day bucket, the monthly read fraction is the
            /// read-weighted average of daily fractions (1.0 for read-less
            /// months), and out-of-horizon records never contribute.
            #[test]
            fn monthly_view_equals_independent_aggregation(
                horizon_days in 1u32..200,
                datasets in proptest::collection::vec(0usize..5, 1..40),
                days in proptest::collection::vec(0u32..230, 40),
                reads in proptest::collection::vec(0.0f64..50.0, 40),
                writes in proptest::collection::vec(0.0f64..20.0, 40),
                fractions in proptest::collection::vec(0.0f64..1.0, 40),
            ) {
                let mut log = DailyAccessLog::new(horizon_days);
                for (i, &dataset) in datasets.iter().enumerate() {
                    log.push(DailyAccess {
                        dataset,
                        day: days[i % days.len()],
                        reads: reads[i % reads.len()],
                        writes: writes[i % writes.len()],
                        read_fraction: fractions[i % fractions.len()],
                    });
                }
                let series = log.monthly_view();

                // Independent reference aggregation straight off the raw
                // record list (kept by the log in insertion order).
                let months = horizon_days.div_ceil(DAYS_PER_MONTH);
                prop_assert_eq!(series.months(), months);
                for dataset in 0..6 {
                    for month in 0..months + 2 {
                        let in_bucket: Vec<&DailyAccess> = log
                            .records()
                            .iter()
                            .filter(|r| {
                                r.dataset == dataset && r.day / DAYS_PER_MONTH == month
                            })
                            .collect();
                        let reads: f64 = in_bucket.iter().map(|r| r.reads).sum();
                        let writes: f64 = in_bucket.iter().map(|r| r.writes).sum();
                        let weighted: f64 =
                            in_bucket.iter().map(|r| r.reads * r.read_fraction).sum();
                        let got = series.get(dataset, month);
                        prop_assert_eq!(
                            got.reads, reads,
                            "dataset {} month {}", dataset, month
                        );
                        prop_assert_eq!(got.writes, writes);
                        if in_bucket.is_empty() {
                            // Untouched buckets come back as the series
                            // default, whose fraction is meaningless
                            // without reads.
                            prop_assert_eq!(got, MonthlyAccess::default());
                        } else {
                            let expect_fraction =
                                if reads > 0.0 { weighted / reads } else { 1.0 };
                            prop_assert!(
                                (got.read_fraction - expect_fraction).abs() <= 1e-12,
                                "fraction {} vs {}", got.read_fraction, expect_fraction
                            );
                        }
                    }
                }
                // Horizon filtering happened at push time: no record beyond
                // the horizon is in the log at all.
                prop_assert!(log.records().iter().all(|r| r.day < horizon_days));
            }
        }
    }
}
