//! Partitions (file sets with access frequencies) and the file catalog.

use crate::error::DataPartError;
use scope_workload::{FileRef, QueryFamily};
use std::collections::{BTreeSet, HashMap};

/// Sizes of the physical files partitions are made of.
///
/// Sizes are in arbitrary consistent units (rows or GB); DATAPART only ever
/// compares and sums them.
#[derive(Debug, Clone, Default)]
pub struct FileCatalog {
    sizes: HashMap<FileRef, f64>,
}

impl FileCatalog {
    /// Create an empty catalog.
    pub fn new() -> Self {
        FileCatalog::default()
    }

    /// Build a catalog from `(table, file count, size per file)` triples,
    /// the common case where a table is split into equal-sized files.
    pub fn uniform(tables: &[(&str, usize, f64)]) -> Self {
        let mut catalog = FileCatalog::new();
        for &(table, count, size) in tables {
            for i in 0..count {
                catalog.insert(FileRef::new(table, i), size);
            }
        }
        catalog
    }

    /// Register a file and its size.
    pub fn insert(&mut self, file: FileRef, size: f64) {
        self.sizes.insert(file, size);
    }

    /// Size of a file, if known.
    pub fn size(&self, file: &FileRef) -> Option<f64> {
        self.sizes.get(file).copied()
    }

    /// Number of files known to the catalog.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// True when no files are registered.
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Total size of a set of (distinct) files. Unknown files are an error.
    pub(crate) fn span_of<'a>(
        &self,
        files: impl IntoIterator<Item = &'a FileRef>,
    ) -> Result<f64, DataPartError> {
        let mut total = 0.0;
        for f in files {
            total += self.size(f).ok_or_else(|| {
                DataPartError::UnknownFile(format!("{}:{}", f.table, f.file_index))
            })?;
        }
        Ok(total)
    }
}

/// A partition: a set of files plus an expected access frequency.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    /// Stable id (initial partitions keep the query family id; merged
    /// partitions get fresh ids from the merger).
    pub id: usize,
    /// The (distinct) files in the partition.
    pub files: BTreeSet<FileRef>,
    /// Expected number of accesses (`ρ`).
    pub frequency: f64,
}

impl Partition {
    /// Create a partition from files and a frequency.
    pub fn new(id: usize, files: impl IntoIterator<Item = FileRef>, frequency: f64) -> Self {
        Partition {
            id,
            files: files.into_iter().collect(),
            frequency,
        }
    }

    /// Build the initial partition corresponding to a query family.
    pub(crate) fn from_query_family(family: &QueryFamily) -> Self {
        Partition {
            id: family.id,
            files: family.files.iter().cloned().collect(),
            frequency: family.frequency,
        }
    }

    /// Build initial partitions from a whole workload.
    pub fn from_families(families: &[QueryFamily]) -> Vec<Partition> {
        families.iter().map(Partition::from_query_family).collect()
    }

    /// Span (total size of distinct files) under a file catalog.
    pub fn span(&self, catalog: &FileCatalog) -> Result<f64, DataPartError> {
        catalog.span_of(self.files.iter())
    }

    /// Number of distinct files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Overlap with another partition: total size of the files common to
    /// both, `Ov(P_i, P_j) = Sp(P_i) + Sp(P_j) − Sp(P_i ∪ P_j)`.
    pub fn overlap(&self, other: &Partition, catalog: &FileCatalog) -> Result<f64, DataPartError> {
        let common: Vec<&FileRef> = self.files.intersection(&other.files).collect();
        catalog.span_of(common)
    }

    /// Overlap and union span in one pass: a sorted merge walk over the two
    /// file sets, with no intermediate set or `Vec` materialized. Both sums
    /// accumulate in ascending [`FileRef`] order — exactly the order
    /// `span_of(intersection)` / `span_of(union)` iterate — so the result
    /// is bit-identical to computing the two spans separately. This is the
    /// hoisted scoring G-PART calls once per candidate edge.
    pub(crate) fn overlap_stats(
        &self,
        other: &Partition,
        catalog: &FileCatalog,
    ) -> Result<(f64, f64), DataPartError> {
        let mut overlap = 0.0;
        let mut union_span = 0.0;
        let size_of = |f: &FileRef| {
            catalog
                .size(f)
                .ok_or_else(|| DataPartError::UnknownFile(format!("{}:{}", f.table, f.file_index)))
        };
        let mut a = self.files.iter().peekable();
        let mut b = other.files.iter().peekable();
        loop {
            match (a.peek(), b.peek()) {
                (Some(&fa), Some(&fb)) => match fa.cmp(fb) {
                    std::cmp::Ordering::Less => {
                        union_span += size_of(fa)?;
                        a.next();
                    }
                    std::cmp::Ordering::Greater => {
                        union_span += size_of(fb)?;
                        b.next();
                    }
                    std::cmp::Ordering::Equal => {
                        let s = size_of(fa)?;
                        union_span += s;
                        overlap += s;
                        a.next();
                        b.next();
                    }
                },
                (Some(&fa), None) => {
                    union_span += size_of(fa)?;
                    a.next();
                }
                (None, Some(&fb)) => {
                    union_span += size_of(fb)?;
                    b.next();
                }
                (None, None) => break,
            }
        }
        Ok((overlap, union_span))
    }

    /// Fractional overlap with another partition:
    /// `Ov(P_i, P_j) / Sp(P_i ∪ P_j)` (0 = disjoint, → 1 = nearly identical).
    pub(crate) fn fractional_overlap(
        &self,
        other: &Partition,
        catalog: &FileCatalog,
    ) -> Result<f64, DataPartError> {
        let (overlap, union_span) = self.overlap_stats(other, catalog)?;
        if union_span <= 0.0 {
            return Ok(0.0);
        }
        Ok(overlap / union_span)
    }

    /// Merge with another partition (union of files, sum of frequencies).
    pub fn merge(&self, other: &Partition, new_id: usize) -> Partition {
        Partition {
            id: new_id,
            files: self.files.union(&other.files).cloned().collect(),
            frequency: self.frequency + other.frequency,
        }
    }

    /// Expected read cost of the partition: `Sp · ρ`.
    pub fn read_cost(&self, catalog: &FileCatalog) -> Result<f64, DataPartError> {
        Ok(self.span(catalog)? * self.frequency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> FileCatalog {
        FileCatalog::uniform(&[("t", 10, 5.0)])
    }

    fn partition(id: usize, indices: &[usize], freq: f64) -> Partition {
        Partition::new(id, indices.iter().map(|&i| FileRef::new("t", i)), freq)
    }

    #[test]
    fn span_overlap_and_fractional_overlap() {
        let c = catalog();
        let a = partition(0, &[0, 1, 2], 2.0);
        let b = partition(1, &[2, 3], 3.0);
        assert_eq!(a.span(&c).unwrap(), 15.0);
        assert_eq!(b.span(&c).unwrap(), 10.0);
        assert_eq!(a.overlap(&b, &c).unwrap(), 5.0);
        // Union spans files 0..=3 -> 20; fractional overlap 5/20.
        assert!((a.fractional_overlap(&b, &c).unwrap() - 0.25).abs() < 1e-12);
        // Disjoint partitions have zero overlap.
        let d = partition(2, &[7, 8], 1.0);
        assert_eq!(a.overlap(&d, &c).unwrap(), 0.0);
        assert_eq!(a.fractional_overlap(&d, &c).unwrap(), 0.0);
    }

    #[test]
    fn merge_unions_files_and_sums_frequencies() {
        let c = catalog();
        let a = partition(0, &[0, 1, 2], 2.0);
        let b = partition(1, &[2, 3], 3.0);
        let m = a.merge(&b, 99);
        assert_eq!(m.id, 99);
        assert_eq!(m.file_count(), 4);
        assert_eq!(m.frequency, 5.0);
        assert_eq!(m.span(&c).unwrap(), 20.0);
        // Span of a merge never exceeds the sum of spans (subadditivity).
        assert!(m.span(&c).unwrap() <= a.span(&c).unwrap() + b.span(&c).unwrap());
        // Read cost is span * frequency.
        assert_eq!(m.read_cost(&c).unwrap(), 100.0);
    }

    #[test]
    fn overlap_stats_matches_set_based_spans_bitwise() {
        // The merge-walk must reproduce the historical two-pass computation
        // (span of the intersection, span of the union) exactly.
        let mut c = FileCatalog::new();
        for i in 0..12 {
            c.insert(FileRef::new("t", i), 1.0 + i as f64 * 0.37);
        }
        let cases = [
            (vec![0, 1, 2, 5], vec![2, 3, 5, 7]),
            (vec![0, 1], vec![4, 5]),
            (vec![3, 4, 5], vec![3, 4, 5]),
            (vec![0], vec![0, 1, 2, 3, 4, 5, 6]),
        ];
        for (fa, fb) in cases {
            let a = partition(0, &fa, 1.0);
            let b = partition(1, &fb, 1.0);
            let (overlap, union_span) = a.overlap_stats(&b, &c).unwrap();
            let common: Vec<&FileRef> = a.files.intersection(&b.files).collect();
            let expect_overlap = c.span_of(common).unwrap();
            let expect_union = c.span_of(a.files.union(&b.files)).unwrap();
            assert_eq!(overlap.to_bits(), expect_overlap.to_bits());
            assert_eq!(union_span.to_bits(), expect_union.to_bits());
            assert_eq!(a.overlap(&b, &c).unwrap().to_bits(), overlap.to_bits());
        }
    }

    #[test]
    fn unknown_files_are_reported() {
        let c = catalog();
        let bad = Partition::new(0, [FileRef::new("other", 0)], 1.0);
        assert!(matches!(bad.span(&c), Err(DataPartError::UnknownFile(_))));
    }

    #[test]
    fn from_query_family_preserves_id_files_and_frequency() {
        let family = QueryFamily {
            id: 7,
            files: vec![
                FileRef::new("t", 1),
                FileRef::new("t", 1),
                FileRef::new("t", 2),
            ],
            frequency: 4.0,
            template: 3,
        };
        let p = Partition::from_query_family(&family);
        assert_eq!(p.id, 7);
        assert_eq!(p.file_count(), 2); // duplicates collapse
        assert_eq!(p.frequency, 4.0);
        let many = Partition::from_families(&[family.clone(), family]);
        assert_eq!(many.len(), 2);
    }

    #[test]
    fn uniform_catalog_registers_all_files() {
        let c = FileCatalog::uniform(&[("a", 3, 2.0), ("b", 2, 10.0)]);
        assert_eq!(c.len(), 5);
        assert_eq!(c.size(&FileRef::new("a", 2)), Some(2.0));
        assert_eq!(c.size(&FileRef::new("b", 1)), Some(10.0));
        assert_eq!(c.size(&FileRef::new("b", 5)), None);
        assert!(!c.is_empty());
        assert!(FileCatalog::new().is_empty());
    }
}
