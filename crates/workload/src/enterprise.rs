//! Enterprise Data Lake workload generator.
//!
//! Generates a dataset catalog plus a monthly access-log series whose
//! statistics reproduce the published enterprise characteristics:
//!
//! * **Dataset-level skew** (Fig 1a): a small fraction of datasets receive
//!   most of the read accesses — the per-dataset access *volume scale* is
//!   drawn from a Zipf distribution over the dataset rank.
//! * **Recency** (Fig 1b): access frequency falls with dataset age — most
//!   datasets get a `Decreasing` pattern and creation months are spread
//!   over the history window.
//! * **Pattern mix** (Fig 2): some datasets are constant readers, a class of
//!   datasets peaks periodically (seasonality / year-on-year analysis),
//!   marketing-style datasets see a one-shot activation spike, and a long
//!   tail is dormant after ingestion.
//! * **Size skew**: dataset sizes span ~4 orders of magnitude (GB to
//!   hundreds of TB) drawn from a log-uniform distribution, so a catalog of
//!   a few hundred datasets totals 0.05–0.6 PB as in Table II.

use crate::access_log::{AccessSeries, MonthlyAccess};
use crate::dataset::{DatasetCatalog, DatasetMeta};
use crate::daylog::{DailyAccess, DailyAccessLog, DAYS_PER_MONTH};
use crate::error::WorkloadError;
use crate::patterns::AccessPattern;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scope_table::Zipf;

/// Zipf exponent of the per-dataset access-volume skew (Fig 1a): at 1.2 the
/// top tenth of the datasets takes most of the reads and the tail next to
/// none, the shape Fig 1a shows.
const ACCESS_SKEW: f64 = 1.2;

/// Smallest dataset size in GB; sizes are log-uniform from here up to
/// [`EnterpriseOptions::max_size_gb`], ~4 orders of magnitude at the
/// default 100 TB cap.
const MIN_SIZE_GB: f64 = 1.0;

/// Fraction of reads that scan the full dataset (the rest scan a
/// uniformly random fraction).
const FULL_SCAN_FRACTION: f64 = 0.3;

/// The most months one workload may span: the largest count whose days
/// stay within the billing simulator's 36 500-day replay cap (`scope-core`
/// asserts the two agree at compile time), so every day index derived from
/// a month fits a `u32` and every horizon replays.
pub const MAX_TOTAL_MONTHS: u32 = 36_500 / DAYS_PER_MONTH;

/// Options for the enterprise workload generator.
#[derive(Debug, Clone, PartialEq)]
pub struct EnterpriseOptions {
    /// Number of datasets in the account (the paper's storage account has
    /// 760 datasets / ~700 TB).
    pub n_datasets: usize,
    /// Number of months of history to generate (the tier predictor trains
    /// on this history).
    pub history_months: u32,
    /// Number of future months to generate (the projection horizon the
    /// optimizer plans for and the billing simulator replays).
    pub future_months: u32,
    /// Largest dataset size in GB (at least the 1 GB smallest size).
    pub max_size_gb: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EnterpriseOptions {
    fn default() -> Self {
        EnterpriseOptions {
            n_datasets: 760,
            history_months: 12,
            future_months: 6,
            max_size_gb: 100_000.0, // 100 TB
            seed: 17,
        }
    }
}

impl EnterpriseOptions {
    /// Validate the options.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        if self.n_datasets == 0 {
            return Err(WorkloadError::InvalidOption(
                "n_datasets must be > 0".to_string(),
            ));
        }
        if self.total_months() == 0 {
            return Err(WorkloadError::InvalidOption(
                "at least one month must be generated".to_string(),
            ));
        }
        if self.total_months() > MAX_TOTAL_MONTHS {
            return Err(WorkloadError::InvalidOption(format!(
                "history_months + future_months must be at most {MAX_TOTAL_MONTHS}, got {} + {}",
                self.history_months, self.future_months
            )));
        }
        if !(self.max_size_gb >= MIN_SIZE_GB) {
            return Err(WorkloadError::InvalidOption(format!(
                "max_size_gb must be at least {MIN_SIZE_GB}, got {}",
                self.max_size_gb
            )));
        }
        Ok(())
    }

    /// Total number of generated months (history + future). It saturates
    /// at `u32::MAX` rather than wrap, so [`EnterpriseOptions::validate`]
    /// refuses an overflowing pair.
    pub fn total_months(&self) -> u32 {
        self.history_months.saturating_add(self.future_months)
    }
}

/// A generated enterprise workload: catalog + day-resolution access log
/// (+ its monthly aggregation).
#[derive(Debug, Clone)]
pub struct EnterpriseWorkload {
    /// The dataset catalog.
    pub catalog: DatasetCatalog,
    /// Monthly access counts over history + future months. This is the
    /// aggregation [`EnterpriseWorkload::daily`] rolls up to (kept
    /// materialized because the tier predictor's features are monthly).
    pub series: AccessSeries,
    /// Day-resolution access log: each month's sampled accesses spread over
    /// the days of that billing period. The source of truth for
    /// day-granular billing; `series` is its monthly view.
    pub daily: DailyAccessLog,
    /// The options the workload was generated with.
    pub options: EnterpriseOptions,
}

impl EnterpriseWorkload {
    /// Generate a workload.
    pub fn generate(options: EnterpriseOptions) -> Result<Self, WorkloadError> {
        options.validate()?;
        let mut rng = SmallRng::seed_from_u64(options.seed);
        let zipf = Zipf::new(options.n_datasets, ACCESS_SKEW);
        let total_months = options.total_months();

        // Per-dataset access scale: datasets are ranked by a random
        // permutation and the Zipf pmf of the rank fixes their share of the
        // lake's total read volume.
        let total_reads_budget = options.n_datasets as f64 * 4000.0;
        let mut ranks: Vec<usize> = (0..options.n_datasets).collect();
        for i in (1..ranks.len()).rev() {
            let j = rng.gen_range(0..=i);
            ranks.swap(i, j);
        }

        // The long tail of the ranking receives no reads at all: Fig 1a shows
        // the access share collapsing to ~0 beyond the first ~half of the
        // datasets, and Fig 1b shows most data is never read again months
        // after creation. Only the `active_ranks` head of the zipf ranking
        // carries read volume; the tail is dormant cold data (the bytes the
        // Cool/Archive tiers monetize in Table II).
        let active_ranks = (options.n_datasets as f64 * 0.55).ceil() as usize;

        let mut datasets = Vec::with_capacity(options.n_datasets);
        for (idx, &rank) in ranks.iter().enumerate() {
            // Total expected reads for this dataset over the horizon.
            let volume = if rank < active_ranks {
                total_reads_budget * zipf.pmf(rank)
            } else {
                0.0
            };
            // Log-uniform size, with the upper bound shrinking as the read
            // volume grows: heavily-read datasets are curated analytics
            // tables (GBs), while the bulk of an account's bytes sits in
            // rarely-read raw data (up to max_size_gb). This size/heat
            // anticorrelation is what makes storage dominate account cost
            // and produces the large Table II benefits and the Fig 3 shape.
            let size_cap_gb = (options.max_size_gb / (1.0 + volume / 5.0)).max(MIN_SIZE_GB);
            let log_min = MIN_SIZE_GB.ln();
            let log_max = size_cap_gb.ln();
            let size_gb = (log_min + rng.gen::<f64>() * (log_max - log_min)).exp();
            // Creation month spread over the history window (recency).
            let created_month = rng.gen_range(0..options.history_months.max(1));
            // The zero-volume tail (the ~45% of ranks past `active_ranks`)
            // is always dormant. Active datasets mix 45% decreasing,
            // 20% constant, 15% periodic, 10% spike, 10% dormant.
            let roll: f64 = rng.gen();
            let pattern = if volume < 0.5 || roll < 0.10 {
                AccessPattern::Dormant
            } else if roll < 0.55 {
                AccessPattern::Decreasing {
                    initial: volume * 0.4,
                    decay: rng.gen_range(0.5..0.9),
                }
            } else if roll < 0.75 {
                AccessPattern::Constant {
                    rate: (volume / total_months as f64).max(0.2),
                }
            } else if roll < 0.90 {
                AccessPattern::Periodic {
                    base: (volume / total_months as f64 * 0.3).max(0.1),
                    peak: volume * 0.3,
                    period: if rng.gen_range(0..2usize) == 0 { 6 } else { 12 },
                }
            } else {
                AccessPattern::Spike {
                    month: rng.gen_range(0..3),
                    magnitude: volume,
                }
            };
            // Latency SLAs: most data is best-effort; 10% needs sub-second.
            let latency_threshold_seconds = if rng.gen::<f64>() < 0.1 {
                1.0
            } else {
                f64::INFINITY
            };
            datasets.push(DatasetMeta {
                id: idx,
                name: format!("dataset-{idx:04}"),
                size_gb,
                created_month,
                latency_threshold_seconds,
                pattern,
            });
        }
        let catalog = DatasetCatalog::new(datasets);

        // Sample the monthly access series by drawing Poisson-ish counts
        // around each pattern's expectation.
        let mut series = AccessSeries::new(total_months);
        for d in catalog.iter() {
            for month in d.created_month..total_months {
                let age = month - d.created_month;
                let expected_reads = d.pattern.expected_reads(age);
                let expected_writes = d.pattern.expected_writes(age);
                let reads = sample_count(&mut rng, expected_reads);
                let writes = sample_count(&mut rng, expected_writes);
                let read_fraction = if rng.gen::<f64>() < FULL_SCAN_FRACTION {
                    1.0
                } else {
                    rng.gen_range(0.05..0.6)
                };
                series.set(
                    d.id,
                    month,
                    MonthlyAccess {
                        reads,
                        writes,
                        read_fraction,
                    },
                );
            }
        }
        // Spread each month's sampled counts over the days of its billing
        // period. A *separate* RNG keeps the monthly stream above untouched,
        // so monthly statistics (and everything trained/validated on them)
        // are unchanged by the day-resolution refinement; the monthly series
        // is exactly the day log's monthly view.
        let mut day_rng = SmallRng::seed_from_u64(options.seed ^ 0xD1B5_4A32_D192_ED03);
        let mut daily = DailyAccessLog::new(total_months * DAYS_PER_MONTH);
        for d in catalog.iter() {
            for month in d.created_month..total_months {
                let acc = series.get(d.id, month);
                if acc.reads <= 0.0 && acc.writes <= 0.0 {
                    continue;
                }
                let base_day = month * DAYS_PER_MONTH;
                let mut reads_per_day = [0.0f64; DAYS_PER_MONTH as usize];
                let mut writes_per_day = [0.0f64; DAYS_PER_MONTH as usize];
                spread_over_days(&mut day_rng, acc.reads, &mut reads_per_day);
                spread_over_days(&mut day_rng, acc.writes, &mut writes_per_day);
                for (offset, (&reads, &writes)) in
                    reads_per_day.iter().zip(&writes_per_day).enumerate()
                {
                    if reads > 0.0 || writes > 0.0 {
                        daily.push(DailyAccess {
                            dataset: d.id,
                            day: base_day + offset as u32,
                            reads,
                            writes,
                            read_fraction: acc.read_fraction,
                        });
                    }
                }
            }
        }
        Ok(EnterpriseWorkload {
            catalog,
            series,
            daily,
            options,
        })
    }

    /// The first future month (the start of the projection horizon).
    pub fn projection_start(&self) -> u32 {
        self.options.history_months
    }

    /// Percentage of datasets created in each age bucket that received at
    /// least one read in the final history month — the decreasing curve of
    /// Fig 1b ("% accesses vs months since file was created").
    pub fn access_share_by_age(&self) -> Vec<(u32, f64)> {
        let month = self.options.history_months.saturating_sub(1);
        let mut total_reads = 0.0;
        let mut by_age: std::collections::BTreeMap<u32, f64> = std::collections::BTreeMap::new();
        for d in self.catalog.iter() {
            if let Some(age) = d.age_at(month) {
                let reads = self.series.get(d.id, month).reads;
                *by_age.entry(age).or_insert(0.0) += reads;
                total_reads += reads;
            }
        }
        by_age
            .into_iter()
            .map(|(age, reads)| {
                (
                    age,
                    if total_reads > 0.0 {
                        100.0 * reads / total_reads
                    } else {
                        0.0
                    },
                )
            })
            .collect()
    }
}

/// Sample an integer-ish count around an expectation (a cheap Poisson
/// stand-in: expectation plus bounded multiplicative noise, floored at 0).
fn sample_count<R: Rng>(rng: &mut R, expected: f64) -> f64 {
    if expected <= 0.0 {
        return 0.0;
    }
    let noise = rng.gen_range(0.7..1.3);
    (expected * noise).round().max(0.0)
}

/// Spread an integer-valued monthly count uniformly over the days of the
/// month: each unit lands on an independently drawn day, so the per-day
/// counts sum to the monthly count exactly.
fn spread_over_days<R: Rng>(rng: &mut R, count: f64, per_day: &mut [f64; 30]) {
    if !(count > 0.0) {
        return;
    }
    // Monthly counts are `sample_count` outputs (rounded, bounded noise);
    // the cap only guards against pathological hand-built series.
    let units = count.min(50_000_000.0) as u64;
    for _ in 0..units {
        per_day[rng.gen_range(0..per_day.len())] += 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_options() -> EnterpriseOptions {
        EnterpriseOptions {
            n_datasets: 200,
            history_months: 8,
            future_months: 4,
            ..Default::default()
        }
    }

    #[test]
    fn generates_requested_catalog_and_series_shape() {
        let w = EnterpriseWorkload::generate(small_options()).unwrap();
        assert_eq!(w.catalog.len(), 200);
        assert_eq!(w.series.months(), 12);
        assert_eq!(w.projection_start(), 8);
        // Sizes must be within bounds and span a wide range.
        let sizes: Vec<f64> = w.catalog.iter().map(|d| d.size_gb).collect();
        assert!(sizes.iter().all(|&s| (1.0..=100_000.0).contains(&s)));
        let max = sizes.iter().cloned().fold(0.0, f64::max);
        let min = sizes.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min > 100.0, "size range too narrow: {min}..{max}");
    }

    #[test]
    fn access_distribution_is_skewed_like_fig1a() {
        let w = EnterpriseWorkload::generate(EnterpriseOptions {
            n_datasets: 400,
            ..small_options()
        })
        .unwrap();
        let shares = w.series.access_share_sorted();
        // The top 10% of datasets should receive well over half the accesses.
        let top_decile: f64 = shares.iter().take(40).sum();
        assert!(top_decile > 50.0, "top decile share = {top_decile}");
        // And a long tail should receive (almost) nothing.
        let tail: f64 = shares.iter().skip(200).sum();
        assert!(tail < 20.0, "tail share = {tail}");
    }

    #[test]
    fn recency_access_falls_with_age() {
        let w = EnterpriseWorkload::generate(EnterpriseOptions {
            n_datasets: 500,
            history_months: 12,
            ..small_options()
        })
        .unwrap();
        let by_age = w.access_share_by_age();
        assert!(!by_age.is_empty());
        // Young datasets (age <= 2 months) should take a larger share than
        // old ones (age >= 8 months) in aggregate.
        let young: f64 = by_age.iter().filter(|(a, _)| *a <= 2).map(|(_, s)| s).sum();
        let old: f64 = by_age.iter().filter(|(a, _)| *a >= 8).map(|(_, s)| s).sum();
        assert!(young > old, "young share {young} vs old share {old}");
    }

    #[test]
    fn read_volume_supports_both_tiering_classes() {
        // Regression test: the generator once produced so few reads that no
        // dataset ever crossed the Hot/Cool break-even (~28 full-scan
        // equivalents per month at the paper's Table XII prices), which
        // collapsed the ideal tier labels to all-Cool and degenerated the
        // Table III confusion matrix. The workload must sustain a real Hot
        // class *and* a dormant tail that the Archive tier can monetize.
        let w = EnterpriseWorkload::generate(small_options()).unwrap();
        let start = w.projection_start();
        let horizon = w.options.future_months;
        let mut hot = 0usize;
        let mut dormant = 0usize;
        for d in w.catalog.iter() {
            let mut scans = 0.0;
            let mut reads = 0.0;
            for m in start..start + horizon {
                let acc = w.series.get(d.id, m);
                scans += acc.reads * acc.read_fraction;
                reads += acc.reads;
            }
            if scans / horizon as f64 > 28.0 {
                hot += 1;
            }
            if reads == 0.0 {
                dormant += 1;
            }
        }
        let n = w.catalog.len();
        assert!(hot * 10 >= n, "only {hot}/{n} datasets are hot enough");
        assert!(dormant * 4 >= n, "only {dormant}/{n} datasets are dormant");
    }

    #[test]
    fn bytes_concentrate_in_rarely_read_datasets() {
        // Regression test for the size/heat anticorrelation: account bytes
        // must be dominated by rarely-read data, otherwise storage savings
        // cannot dominate account cost and the Table II "% cost benefit"
        // numbers collapse to single digits.
        let w = EnterpriseWorkload::generate(small_options()).unwrap();
        let start = w.projection_start();
        let horizon = w.options.future_months;
        let mut hot_bytes = 0.0;
        let mut total_bytes = 0.0;
        for d in w.catalog.iter() {
            let mut scans = 0.0;
            for m in start..start + horizon {
                let acc = w.series.get(d.id, m);
                scans += acc.reads * acc.read_fraction;
            }
            total_bytes += d.size_gb;
            if scans / horizon as f64 > 28.0 {
                hot_bytes += d.size_gb;
            }
        }
        assert!(
            hot_bytes < total_bytes * 0.2,
            "hot datasets hold {hot_bytes:.0} of {total_bytes:.0} GB"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = EnterpriseWorkload::generate(small_options()).unwrap();
        let b = EnterpriseWorkload::generate(small_options()).unwrap();
        assert_eq!(a.catalog, b.catalog);
        assert_eq!(a.series, b.series);
        assert_eq!(a.daily, b.daily);
    }

    #[test]
    fn daily_log_aggregates_back_to_the_monthly_series() {
        // The monthly series is a *view* of the day log: per-month read and
        // write counts must round-trip exactly (counts are spread unit by
        // unit), and read volumes (reads × fraction) must agree to float
        // accumulation error.
        let w = EnterpriseWorkload::generate(small_options()).unwrap();
        let view = w.series.months();
        let monthly = w.daily.monthly_view();
        assert_eq!(monthly.months(), view);
        for d in w.catalog.iter() {
            for month in 0..view {
                let orig = w.series.get(d.id, month);
                let agg = monthly.get(d.id, month);
                assert_eq!(agg.reads, orig.reads, "dataset {} month {month}", d.id);
                assert_eq!(agg.writes, orig.writes, "dataset {} month {month}", d.id);
                let orig_volume = orig.reads * orig.read_fraction;
                let agg_volume = agg.reads * agg.read_fraction;
                assert!(
                    (agg_volume - orig_volume).abs() < 1e-6 * (1.0 + orig_volume),
                    "dataset {} month {month}: volume {agg_volume} vs {orig_volume}",
                    d.id
                );
            }
        }
    }

    #[test]
    fn daily_log_stays_within_each_dataset_lifetime() {
        let w = EnterpriseWorkload::generate(small_options()).unwrap();
        assert!(!w.daily.is_empty());
        let horizon_days = w.series.months() * 30;
        assert_eq!(w.daily.horizon_days(), horizon_days);
        for r in w.daily.records() {
            assert!(r.day < horizon_days);
            let created_day = w.catalog.get(r.dataset).unwrap().created_month * 30;
            assert!(
                r.day >= created_day,
                "dataset {} accessed on day {} before creation day {created_day}",
                r.dataset,
                r.day
            );
        }
    }

    #[test]
    fn no_accesses_before_creation() {
        let w = EnterpriseWorkload::generate(small_options()).unwrap();
        for d in w.catalog.iter() {
            for month in 0..d.created_month {
                let acc = w.series.get(d.id, month);
                assert_eq!(acc.reads, 0.0);
                assert_eq!(acc.writes, 0.0);
            }
        }
    }

    #[test]
    fn writes_happen_at_ingestion() {
        let w = EnterpriseWorkload::generate(small_options()).unwrap();
        let with_ingest_write = w
            .catalog
            .iter()
            .filter(|d| w.series.get(d.id, d.created_month).writes >= 1.0)
            .count();
        assert!(with_ingest_write as f64 / w.catalog.len() as f64 > 0.9);
    }

    #[test]
    fn invalid_options_rejected() {
        assert!(EnterpriseWorkload::generate(EnterpriseOptions {
            n_datasets: 0,
            ..Default::default()
        })
        .is_err());
        assert!(EnterpriseWorkload::generate(EnterpriseOptions {
            history_months: 0,
            future_months: 0,
            ..Default::default()
        })
        .is_err());
        assert!(EnterpriseWorkload::generate(EnterpriseOptions {
            max_size_gb: 0.5,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn month_counts_past_the_billing_cap_are_refused_not_wrapped() {
        let months = |history_months, future_months| EnterpriseOptions {
            history_months,
            future_months,
            ..Default::default()
        };
        // u32::MAX + 2 wraps to 1 without checked arithmetic.
        for (history, future) in [(u32::MAX, 2), (2, u32::MAX), (1_200, 17)] {
            assert!(
                matches!(
                    months(history, future).validate(),
                    Err(WorkloadError::InvalidOption(_))
                ),
                "{history} + {future}"
            );
        }
        assert_eq!(months(u32::MAX, 2).total_months(), u32::MAX);
        assert_eq!(MAX_TOTAL_MONTHS, 1_216);
        assert!(months(1_200, 16).validate().is_ok());
    }
}
