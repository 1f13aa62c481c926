//! Query-family workloads.
//!
//! DATAPART (§VI) defines a *query family* as "all queries that map to the
//! same files in the data tables"; the initial partitions it merges are
//! exactly those file sets, weighted by access frequency. COMPREDICT's
//! query-based sampling likewise derives its training samples from the rows
//! touched by queries. This module models both:
//!
//! * `TpchQueryTemplate` — the 22 TPC-H query templates reduced to their
//!   *data-access footprint*: which tables they touch and how selectively
//!   (a date-range over the fact table, a full dimension scan, a point
//!   lookup, ...). The join/aggregation logic of the SQL is irrelevant to
//!   storage costs; only the footprint matters.
//! * [`QueryWorkload`] — a generated set of [`QueryFamily`]s over the files
//!   of a set of tables, with a uniform or Zipf-skewed frequency
//!   distribution (the paper generates 20 queries per template for TPC-H
//!   and Zipf-distributed queries for Enterprise Data II).

use crate::error::WorkloadError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scope_table::Zipf;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A reference to one file (horizontal slice) of a table.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FileRef {
    /// Table the file belongs to.
    pub table: String,
    /// Index of the file within the table's file sequence.
    pub file_index: usize,
}

impl FileRef {
    /// Create a file reference.
    pub fn new(table: impl Into<String>, file_index: usize) -> Self {
        FileRef {
            table: table.into(),
            file_index,
        }
    }
}

/// A query family: the set of files accessed together, with an expected
/// access frequency over the projection horizon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryFamily {
    /// Stable id.
    pub id: usize,
    /// Files read by queries of this family (deduplicated, sorted).
    pub files: Vec<FileRef>,
    /// Expected number of executions of this family over the horizon.
    pub frequency: f64,
    /// Template index this family was generated from (for reporting).
    pub template: usize,
}

impl QueryFamily {
    /// Number of distinct files touched.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }
}

/// One of the 22 TPC-H query templates, reduced to its access footprint.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TpchQueryTemplate {
    /// Template number (1..=22).
    pub number: usize,
    /// Per-table footprint: `(table name, fraction of files touched,
    /// contiguous?)`. Contiguous footprints model date-range predicates
    /// over time-ordered files; scattered footprints model key/attribute
    /// predicates.
    pub footprint: Vec<(&'static str, f64, bool)>,
}

impl TpchQueryTemplate {
    /// The 22 TPC-H templates. Fractions follow the templates' dominant
    /// predicates: Q1/Q6 scan a large shipdate range of lineitem, Q2/Q11
    /// touch part/partsupp/supplier, Q13 is customer×orders, etc.
    pub(crate) fn all() -> Vec<TpchQueryTemplate> {
        let t = |number, footprint: &[(&'static str, f64, bool)]| TpchQueryTemplate {
            number,
            footprint: footprint.to_vec(),
        };
        vec![
            t(1, &[("lineitem", 0.95, true)]),
            t(
                2,
                &[
                    ("part", 0.2, false),
                    ("supplier", 1.0, false),
                    ("partsupp", 0.3, false),
                    ("nation", 1.0, false),
                    ("region", 1.0, false),
                ],
            ),
            t(
                3,
                &[
                    ("customer", 0.2, false),
                    ("orders", 0.5, true),
                    ("lineitem", 0.5, true),
                ],
            ),
            t(4, &[("orders", 0.25, true), ("lineitem", 0.25, true)]),
            t(
                5,
                &[
                    ("customer", 1.0, false),
                    ("orders", 0.15, true),
                    ("lineitem", 0.15, true),
                    ("supplier", 1.0, false),
                    ("nation", 1.0, false),
                    ("region", 1.0, false),
                ],
            ),
            t(6, &[("lineitem", 0.15, true)]),
            t(
                7,
                &[
                    ("supplier", 1.0, false),
                    ("lineitem", 0.3, true),
                    ("orders", 0.3, true),
                    ("customer", 1.0, false),
                    ("nation", 1.0, false),
                ],
            ),
            t(
                8,
                &[
                    ("part", 0.05, false),
                    ("supplier", 1.0, false),
                    ("lineitem", 0.3, true),
                    ("orders", 0.3, true),
                    ("customer", 1.0, false),
                    ("nation", 1.0, false),
                    ("region", 1.0, false),
                ],
            ),
            t(
                9,
                &[
                    ("part", 0.1, false),
                    ("supplier", 1.0, false),
                    ("lineitem", 0.6, false),
                    ("partsupp", 0.4, false),
                    ("orders", 0.6, false),
                    ("nation", 1.0, false),
                ],
            ),
            t(
                10,
                &[
                    ("customer", 1.0, false),
                    ("orders", 0.1, true),
                    ("lineitem", 0.1, true),
                    ("nation", 1.0, false),
                ],
            ),
            t(
                11,
                &[
                    ("partsupp", 0.5, false),
                    ("supplier", 1.0, false),
                    ("nation", 1.0, false),
                ],
            ),
            t(12, &[("orders", 0.3, true), ("lineitem", 0.15, true)]),
            t(13, &[("customer", 1.0, false), ("orders", 1.0, false)]),
            t(14, &[("lineitem", 0.08, true), ("part", 0.3, false)]),
            t(15, &[("lineitem", 0.12, true), ("supplier", 1.0, false)]),
            t(
                16,
                &[
                    ("partsupp", 0.6, false),
                    ("part", 0.3, false),
                    ("supplier", 0.2, false),
                ],
            ),
            t(17, &[("lineitem", 0.1, false), ("part", 0.02, false)]),
            t(
                18,
                &[
                    ("customer", 0.3, false),
                    ("orders", 0.6, false),
                    ("lineitem", 0.6, false),
                ],
            ),
            t(19, &[("lineitem", 0.05, false), ("part", 0.05, false)]),
            t(
                20,
                &[
                    ("supplier", 1.0, false),
                    ("nation", 1.0, false),
                    ("partsupp", 0.3, false),
                    ("part", 0.1, false),
                    ("lineitem", 0.2, true),
                ],
            ),
            t(
                21,
                &[
                    ("supplier", 1.0, false),
                    ("lineitem", 0.5, false),
                    ("orders", 0.5, false),
                    ("nation", 1.0, false),
                ],
            ),
            t(22, &[("customer", 0.3, false), ("orders", 0.4, false)]),
        ]
    }
}

/// Options for generating a query workload.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryWorkloadOptions {
    /// Number of query instances generated per template (the paper uses 20).
    pub queries_per_template: usize,
    /// Optional Zipf exponent over templates: when set, some templates run
    /// far more often than others (skewed query workload).
    pub template_skew: Option<f64>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for QueryWorkloadOptions {
    fn default() -> Self {
        QueryWorkloadOptions {
            queries_per_template: 20,
            template_skew: None,
            seed: 11,
        }
    }
}

/// A generated query workload: a set of query families over table files.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryWorkload {
    /// The query families, each with its deduplicated file footprint.
    pub families: Vec<QueryFamily>,
}

impl QueryWorkload {
    /// Generate a TPC-H-style workload over tables whose physical layout is
    /// given as `(table name, number of files)` pairs.
    ///
    /// Each query instance picks a template (uniformly or Zipf-skewed),
    /// instantiates its footprint with random placement (a random contiguous
    /// window for range predicates, a random scatter for point predicates)
    /// and is then grouped with all other instances touching the *same* file
    /// set into one [`QueryFamily`].
    pub fn generate_tpch(
        table_files: &[(String, usize)],
        options: &QueryWorkloadOptions,
    ) -> Result<Self, WorkloadError> {
        if options.queries_per_template == 0 {
            return Err(WorkloadError::InvalidOption(
                "queries_per_template must be > 0".to_string(),
            ));
        }
        if table_files.is_empty() {
            return Err(WorkloadError::InvalidOption(
                "table_files must not be empty".to_string(),
            ));
        }
        let templates = TpchQueryTemplate::all();
        let mut rng = SmallRng::seed_from_u64(options.seed);
        let total_queries = options.queries_per_template * templates.len();
        let zipf = options.template_skew.map(|s| Zipf::new(templates.len(), s));

        let file_count = |table: &str| -> usize {
            table_files
                .iter()
                .find(|(name, _)| name == table)
                .map(|(_, n)| *n)
                .unwrap_or(0)
        };

        // footprint (sorted set of files) -> (frequency, template)
        // BTreeMap: family construction order must not depend on hash seeds.
        let mut grouped: std::collections::BTreeMap<Vec<FileRef>, (f64, usize)> =
            std::collections::BTreeMap::new();
        for q in 0..total_queries {
            let template_idx = match &zipf {
                Some(z) => z.sample(&mut rng),
                None => q % templates.len(),
            };
            let template = &templates[template_idx];
            let mut files: BTreeSet<FileRef> = BTreeSet::new();
            for &(table, fraction, contiguous) in &template.footprint {
                let n_files = file_count(table);
                if n_files == 0 {
                    continue;
                }
                let touched = ((n_files as f64 * fraction).ceil() as usize).clamp(1, n_files);
                if contiguous {
                    // Date-range predicates concentrate on *recent* data
                    // (the recency effect of Fig 1b): the window's start is
                    // drawn with a quadratic bias towards the tail of the
                    // file sequence, so different instances of the same
                    // template overlap heavily on the hot recent files and
                    // the head of the table stays cold.
                    let slack = n_files - touched;
                    let u: f64 = rng.gen();
                    let start = ((1.0 - u * u) * slack as f64).floor() as usize;
                    for i in start..start + touched {
                        files.insert(FileRef::new(table, i));
                    }
                } else {
                    // Scatter: sample `touched` distinct file indices.
                    let mut indices: Vec<usize> = (0..n_files).collect();
                    for i in 0..touched {
                        let j = rng.gen_range(i..n_files);
                        indices.swap(i, j);
                    }
                    for &i in indices.iter().take(touched) {
                        files.insert(FileRef::new(table, i));
                    }
                }
            }
            if files.is_empty() {
                continue;
            }
            let key: Vec<FileRef> = files.into_iter().collect();
            let entry = grouped.entry(key).or_insert((0.0, template.number));
            entry.0 += 1.0;
        }

        let mut families: Vec<QueryFamily> = grouped
            .into_iter()
            .map(|(files, (frequency, template))| QueryFamily {
                id: 0,
                files,
                frequency,
                template,
            })
            .collect();
        // Deterministic ordering, then assign ids.
        families.sort_by(|a, b| {
            a.template
                .cmp(&b.template)
                .then_with(|| a.files.cmp(&b.files))
        });
        for (i, f) in families.iter_mut().enumerate() {
            f.id = i;
        }
        Ok(QueryWorkload { families })
    }

    /// Generate an Enterprise-Data-II-style workload: `n_tables` tables,
    /// each split into `files_per_table` files, with `n_queries` queries
    /// whose (table, file-window) choices follow a Zipf distribution — the
    /// "queries generated based on a skewed power-law (Zipf-like)
    /// distribution" of §III.
    pub fn generate_enterprise(
        n_tables: usize,
        files_per_table: usize,
        n_queries: usize,
        zipf_exponent: f64,
        seed: u64,
    ) -> Result<Self, WorkloadError> {
        if n_tables == 0 || files_per_table == 0 || n_queries == 0 {
            return Err(WorkloadError::InvalidOption(
                "n_tables, files_per_table and n_queries must all be > 0".to_string(),
            ));
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let table_zipf = Zipf::new(n_tables, zipf_exponent);
        let start_zipf = Zipf::new(files_per_table, zipf_exponent);
        // BTreeMap: family construction order must not depend on hash seeds.
        let mut grouped: std::collections::BTreeMap<Vec<FileRef>, f64> =
            std::collections::BTreeMap::new();
        for _ in 0..n_queries {
            let table = table_zipf.sample(&mut rng);
            let start = start_zipf.sample(&mut rng);
            let window = 1 + rng.gen_range(0..files_per_table.div_ceil(4).max(1));
            let end = (start + window).min(files_per_table);
            let files: Vec<FileRef> = (start..end)
                .map(|i| FileRef::new(format!("table-{table}"), i))
                .collect();
            if files.is_empty() {
                continue;
            }
            *grouped.entry(files).or_insert(0.0) += 1.0;
        }
        let mut families: Vec<QueryFamily> = grouped
            .into_iter()
            .map(|(files, frequency)| QueryFamily {
                id: 0,
                files,
                frequency,
                template: 0,
            })
            .collect();
        families.sort_by(|a, b| a.files.cmp(&b.files));
        for (i, f) in families.iter_mut().enumerate() {
            f.id = i;
        }
        Ok(QueryWorkload { families })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl QueryWorkload {
        /// Total query executions across all families.
        fn total_queries(&self) -> f64 {
            self.families.iter().map(|f| f.frequency).sum()
        }

        /// All distinct files referenced by any family.
        fn all_files(&self) -> Vec<FileRef> {
            let set: BTreeSet<FileRef> = self
                .families
                .iter()
                .flat_map(|f| f.files.iter().cloned())
                .collect();
            set.into_iter().collect()
        }
    }

    fn tpch_layout() -> Vec<(String, usize)> {
        vec![
            ("lineitem".to_string(), 40),
            ("orders".to_string(), 10),
            ("customer".to_string(), 4),
            ("part".to_string(), 4),
            ("supplier".to_string(), 1),
            ("partsupp".to_string(), 6),
            ("nation".to_string(), 1),
            ("region".to_string(), 1),
        ]
    }

    #[test]
    fn there_are_22_templates_with_valid_fractions() {
        let templates = TpchQueryTemplate::all();
        assert_eq!(templates.len(), 22);
        for t in &templates {
            assert!(!t.footprint.is_empty());
            for &(_, frac, _) in &t.footprint {
                assert!(frac > 0.0 && frac <= 1.0);
            }
        }
        assert_eq!(templates[0].number, 1);
        assert_eq!(templates[21].number, 22);
    }

    #[test]
    fn tpch_workload_covers_templates_and_respects_layout() {
        let w =
            QueryWorkload::generate_tpch(&tpch_layout(), &QueryWorkloadOptions::default()).unwrap();
        assert!(!w.families.is_empty());
        // Total query executions = 22 templates * 20 queries.
        assert_eq!(w.total_queries(), 440.0);
        // All referenced files must exist in the layout.
        for f in w.all_files() {
            let n = tpch_layout()
                .iter()
                .find(|(t, _)| *t == f.table)
                .map(|(_, n)| *n)
                .unwrap();
            assert!(f.file_index < n, "{f:?} out of range");
        }
        // Ids are dense and ordered.
        for (i, fam) in w.families.iter().enumerate() {
            assert_eq!(fam.id, i);
            assert!(fam.file_count() > 0);
        }
    }

    #[test]
    fn workload_generation_is_deterministic() {
        let a =
            QueryWorkload::generate_tpch(&tpch_layout(), &QueryWorkloadOptions::default()).unwrap();
        let b =
            QueryWorkload::generate_tpch(&tpch_layout(), &QueryWorkloadOptions::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn skewed_template_distribution_concentrates_frequency() {
        let skewed = QueryWorkload::generate_tpch(
            &tpch_layout(),
            &QueryWorkloadOptions {
                template_skew: Some(2.0),
                ..Default::default()
            },
        )
        .unwrap();
        // Under heavy skew, the most frequent family should account for a
        // noticeable share of all queries.
        let max_freq = skewed
            .families
            .iter()
            .map(|f| f.frequency)
            .fold(0.0, f64::max);
        assert!(max_freq / skewed.total_queries() > 0.05);
    }

    #[test]
    fn enterprise_workload_is_zipf_skewed_over_tables() {
        let w = QueryWorkload::generate_enterprise(3, 20, 300, 1.5, 7).unwrap();
        assert!(!w.families.is_empty());
        assert_eq!(w.total_queries(), 300.0);
        // Table 0 (the Zipf head) must receive the most queries.
        let per_table = |name: &str| -> f64 {
            w.families
                .iter()
                .filter(|f| f.files.iter().any(|fr| fr.table == name))
                .map(|f| f.frequency)
                .sum()
        };
        assert!(per_table("table-0") > per_table("table-2"));
    }

    #[test]
    fn invalid_options_rejected() {
        assert!(QueryWorkload::generate_tpch(&[], &QueryWorkloadOptions::default()).is_err());
        assert!(QueryWorkload::generate_tpch(
            &tpch_layout(),
            &QueryWorkloadOptions {
                queries_per_template: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(QueryWorkload::generate_enterprise(0, 1, 1, 1.0, 0).is_err());
        assert!(QueryWorkload::generate_enterprise(1, 0, 1, 1.0, 0).is_err());
        assert!(QueryWorkload::generate_enterprise(1, 1, 0, 1.0, 0).is_err());
    }

    #[test]
    fn query_families_with_identical_footprints_are_merged() {
        // With a single 1-file table every query touches the same footprint,
        // so there must be exactly one family carrying all the frequency.
        let layout = vec![("lineitem".to_string(), 1)];
        let w = QueryWorkload::generate_tpch(
            &layout,
            &QueryWorkloadOptions {
                queries_per_template: 5,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(w.families.len(), 1);
        // Only templates touching lineitem contribute (those exist), so the
        // single family's frequency equals the number of lineitem queries.
        assert!(w.families[0].frequency > 0.0);
        assert_eq!(w.all_files().len(), 1);
    }
}
