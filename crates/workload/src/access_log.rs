//! Monthly access series: the (synthetic) access log.
//!
//! The tier optimizer and tier predictor consume *monthly aggregated* read
//! and write counts per dataset — exactly the granularity the paper's
//! features use ("aggregated monthly read and write accesses for the last
//! few months"). [`AccessSeries`] is that aggregation.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Read/write counts for one dataset in one month.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MonthlyAccess {
    /// Number of read accesses.
    pub reads: f64,
    /// Number of write accesses.
    pub writes: f64,
    /// Average fraction of the dataset scanned per read (1.0 = full scans).
    pub read_fraction: f64,
}

/// Per-dataset, per-month access counts over a horizon of consecutive
/// months.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AccessSeries {
    /// `counts[dataset_id][month]`.
    counts: BTreeMap<usize, Vec<MonthlyAccess>>,
    /// Number of months covered.
    months: u32,
}

impl AccessSeries {
    /// Create an empty series covering `months` months.
    pub fn new(months: u32) -> Self {
        AccessSeries {
            counts: BTreeMap::new(),
            months,
        }
    }

    /// Number of months covered.
    pub fn months(&self) -> u32 {
        self.months
    }

    /// Record (overwrite) the access counts of a dataset in a month.
    pub fn set(&mut self, dataset: usize, month: u32, access: MonthlyAccess) {
        let entry = self
            .counts
            .entry(dataset)
            .or_insert_with(|| vec![MonthlyAccess::default(); self.months as usize]);
        if (month as usize) < entry.len() {
            entry[month as usize] = access;
        }
    }

    /// Access counts of a dataset in a month (zero if never recorded).
    pub fn get(&self, dataset: usize, month: u32) -> MonthlyAccess {
        self.counts
            .get(&dataset)
            .and_then(|v| v.get(month as usize))
            .copied()
            .unwrap_or_default()
    }

    /// Total reads of a dataset over a month range `[from, to)`.
    pub fn total_reads(&self, dataset: usize, from: u32, to: u32) -> f64 {
        (from..to.min(self.months))
            .map(|m| self.get(dataset, m).reads)
            .sum()
    }

    /// Total reads per dataset over the whole horizon, as a map.
    pub(crate) fn reads_per_dataset(&self) -> BTreeMap<usize, f64> {
        self.counts
            .keys()
            .map(|&d| (d, self.total_reads(d, 0, self.months)))
            .collect()
    }

    /// Share of total reads received by each dataset, sorted descending —
    /// the quantity plotted in Fig 1a ("% accesses vs dataset index").
    pub fn access_share_sorted(&self) -> Vec<f64> {
        let per: Vec<f64> = self.reads_per_dataset().values().copied().collect();
        let total: f64 = per.iter().sum();
        if total <= 0.0 {
            return vec![0.0; per.len()];
        }
        let mut shares: Vec<f64> = per.iter().map(|r| 100.0 * r / total).collect();
        shares.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
        shares
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_and_totals() {
        let mut s = AccessSeries::new(6);
        s.set(
            0,
            1,
            MonthlyAccess {
                reads: 10.0,
                writes: 2.0,
                read_fraction: 1.0,
            },
        );
        s.set(
            0,
            3,
            MonthlyAccess {
                reads: 5.0,
                writes: 0.0,
                read_fraction: 0.5,
            },
        );
        s.set(
            1,
            1,
            MonthlyAccess {
                reads: 1.0,
                writes: 1.0,
                read_fraction: 1.0,
            },
        );
        assert_eq!(s.get(0, 1).reads, 10.0);
        assert_eq!(s.get(0, 0).reads, 0.0);
        assert_eq!(s.get(99, 0).reads, 0.0);
        assert_eq!(s.total_reads(0, 0, 6), 15.0);
        assert_eq!(s.total_reads(0, 2, 6), 5.0);
        assert_eq!(s.total_reads(1, 0, 6), 1.0);
        assert_eq!(s.months(), 6);
    }

    #[test]
    fn out_of_range_months_are_ignored() {
        let mut s = AccessSeries::new(2);
        s.set(
            0,
            5,
            MonthlyAccess {
                reads: 99.0,
                writes: 0.0,
                read_fraction: 1.0,
            },
        );
        assert_eq!(s.total_reads(0, 0, 10), 0.0);
    }

    #[test]
    fn access_share_sums_to_100_and_is_sorted() {
        let mut s = AccessSeries::new(1);
        for (d, r) in [(0, 80.0), (1, 15.0), (2, 5.0)] {
            s.set(
                d,
                0,
                MonthlyAccess {
                    reads: r,
                    writes: 0.0,
                    read_fraction: 1.0,
                },
            );
        }
        let shares = s.access_share_sorted();
        assert_eq!(shares.len(), 3);
        assert!((shares.iter().sum::<f64>() - 100.0).abs() < 1e-9);
        assert!(shares[0] >= shares[1] && shares[1] >= shares[2]);
        assert_eq!(shares[0], 80.0);
    }

    #[test]
    fn empty_series_has_zero_shares() {
        let s = AccessSeries::new(3);
        assert!(s.access_share_sorted().is_empty());
    }
}
