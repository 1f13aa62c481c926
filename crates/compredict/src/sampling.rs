//! Sample generation: random row samples vs query-based samples.
//!
//! Fig 4 and Table V of the paper compare two ways of building the training
//! corpus for the compression predictor:
//!
//! * **Random samples** — random subsets of rows of each table. These are a
//!   poor representation of what is actually read from tabular data: queried
//!   data "typically has more repetition, which results in higher
//!   compression ratios compared to random samples".
//! * **Query-based samples** — the row sets actually touched by queries
//!   (here: contiguous row windows and template footprints derived from the
//!   query workload), which is what SCOPe uses.

use crate::CompredictError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scope_table::Table;
use scope_workload::QueryFamily;

/// Draw `count` random row-subset samples from `table`, each containing
/// `rows_per_sample` rows chosen uniformly without ordering constraints.
pub fn random_samples(
    table: &Table,
    count: usize,
    rows_per_sample: usize,
    seed: u64,
) -> Result<Vec<Table>, CompredictError> {
    if count == 0 || rows_per_sample == 0 {
        return Err(CompredictError::InvalidOption(
            "count and rows_per_sample must be > 0".to_string(),
        ));
    }
    if table.is_empty() {
        return Err(CompredictError::NotEnoughSamples(0));
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = table.n_rows();
    let mut samples = Vec::with_capacity(count);
    for _ in 0..count {
        let rows: Vec<usize> = (0..rows_per_sample.min(n))
            .map(|_| rng.gen_range(0..n))
            .collect();
        samples.push(table.take_rows(&rows)?);
    }
    Ok(samples)
}

/// Build query-based samples from a table that has been physically split
/// into `files` (consecutive row ranges) and a query workload over those
/// files.
///
/// Each query family yields one sample: the concatenation of the rows of the
/// files it touches (restricted to files of this table). Families touching
/// none of this table's files are skipped.
pub fn query_samples(
    table: &Table,
    files: &[Table],
    families: &[QueryFamily],
) -> Result<Vec<Table>, CompredictError> {
    if files.is_empty() {
        return Err(CompredictError::InvalidOption(
            "files must not be empty".to_string(),
        ));
    }
    let mut samples = Vec::new();
    for family in families {
        let mut row_indices: Vec<usize> = Vec::new();
        let mut offset_of_file = vec![0usize; files.len()];
        let mut acc = 0usize;
        for (i, f) in files.iter().enumerate() {
            offset_of_file[i] = acc;
            acc += f.n_rows();
        }
        for file_ref in &family.files {
            if file_ref.table != table.name {
                continue;
            }
            if let Some(file) = files.get(file_ref.file_index) {
                let start = offset_of_file[file_ref.file_index];
                row_indices.extend(start..start + file.n_rows());
            }
        }
        if row_indices.is_empty() {
            continue;
        }
        samples.push(table.take_rows(&row_indices)?);
    }
    if samples.is_empty() {
        return Err(CompredictError::NotEnoughSamples(0));
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_table::{TpchGenerator, TpchOptions, TpchTable};
    use scope_workload::FileRef;

    fn orders() -> Table {
        TpchGenerator::new(TpchOptions {
            scale_factor: 0.2,
            ..Default::default()
        })
        .unwrap()
        .generate(TpchTable::Orders)
    }

    #[test]
    fn random_samples_have_requested_shape() {
        let t = orders();
        let samples = random_samples(&t, 5, 40, 1).unwrap();
        assert_eq!(samples.len(), 5);
        for s in &samples {
            assert_eq!(s.n_rows(), 40);
            assert_eq!(s.n_columns(), t.n_columns());
        }
        // Deterministic for a seed.
        let again = random_samples(&t, 5, 40, 1).unwrap();
        assert_eq!(samples[0], again[0]);
    }

    #[test]
    fn random_samples_validate_inputs() {
        let t = orders();
        assert!(random_samples(&t, 0, 10, 1).is_err());
        assert!(random_samples(&t, 1, 0, 1).is_err());
    }

    #[test]
    fn query_samples_concatenate_touched_files() {
        let t = orders();
        let files = t.split_into_files(50).unwrap();
        let families = vec![
            QueryFamily {
                id: 0,
                files: vec![FileRef::new("orders", 0), FileRef::new("orders", 2)],
                frequency: 3.0,
                template: 1,
            },
            QueryFamily {
                id: 1,
                files: vec![FileRef::new("lineitem", 0)], // other table: skipped
                frequency: 1.0,
                template: 2,
            },
        ];
        let samples = query_samples(&t, &files, &families).unwrap();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].n_rows(), files[0].n_rows() + files[2].n_rows());
    }

    #[test]
    fn query_samples_error_when_nothing_matches() {
        let t = orders();
        let files = t.split_into_files(50).unwrap();
        let families = vec![QueryFamily {
            id: 0,
            files: vec![FileRef::new("part", 0)],
            frequency: 1.0,
            template: 1,
        }];
        assert!(matches!(
            query_samples(&t, &files, &families),
            Err(CompredictError::NotEnoughSamples(_))
        ));
        assert!(query_samples(&t, &[], &families).is_err());
    }
}
