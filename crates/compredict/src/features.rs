//! Feature extraction for compression prediction.
//!
//! The paper's key finding is that dataset size or datatype alone do not
//! predict compression well; what does is the *weighted entropy* per data
//! type,
//!
//! ```text
//! H(P, d) = - Σ_{s ∈ P[:, d]} len(s) · pr(s) · log(pr(s))
//! ```
//!
//! computed over the string representations `s` of all values of columns of
//! type `d` in partition `P` — an approximate measure of how much repetition
//! the columns of that type carry. The *bucketed* variant computes the same
//! quantity per successive 20% of rows to capture the effect of sorting.

use scope_table::{ColumnData, ColumnType, Table};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a: a tiny non-cryptographic hasher for the per-cell counting maps
/// — the keys are in-memory column values, not attacker-controlled input,
/// so the default SipHash's DoS resistance buys nothing here and its
/// per-key cost is the hot-path tax.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf29ce484222325) // FNV offset basis
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        self.0 = h;
    }
}

type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<Fnv>>;

/// Which feature set to extract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureSet {
    /// Only the serialized size (and row count) of the partition — the
    /// baseline the paper shows is insufficient on query-derived samples.
    SizeOnly,
    /// Size features plus one weighted-entropy feature per data type.
    WeightedEntropy,
    /// Size features plus bucketed (per-20%-of-rows) weighted entropy per
    /// data type — the variant proposed for sorted data.
    BucketedEntropy,
}

impl FeatureSet {
    /// Human-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            FeatureSet::SizeOnly => "size",
            FeatureSet::WeightedEntropy => "weighted-entropy",
            FeatureSet::BucketedEntropy => "bucketed-weighted-entropy",
        }
    }
}

/// Number of row buckets used by [`FeatureSet::BucketedEntropy`] (successive
/// 20% chunks, as in the paper).
pub const ENTROPY_BUCKETS: usize = 5;

/// Extracts feature vectors from tables / partitions.
#[derive(Debug, Clone, Copy)]
pub struct FeatureExtractor {
    /// The feature set to extract.
    pub feature_set: FeatureSet,
}

impl FeatureExtractor {
    /// Create an extractor for the given feature set.
    pub fn new(feature_set: FeatureSet) -> Self {
        FeatureExtractor { feature_set }
    }

    /// Names of the features produced, in order.
    pub fn feature_names(&self) -> Vec<String> {
        let mut names = vec!["rows".to_string(), "approx_bytes".to_string()];
        match self.feature_set {
            FeatureSet::SizeOnly => {}
            FeatureSet::WeightedEntropy => {
                for t in ColumnType::all() {
                    names.push(format!("H_{}", t.name()));
                }
            }
            FeatureSet::BucketedEntropy => {
                for bucket in 0..ENTROPY_BUCKETS {
                    for t in ColumnType::all() {
                        names.push(format!("H_{}_b{}", t.name(), bucket));
                    }
                }
            }
        }
        names
    }

    /// Extract the feature vector for a table (partition).
    pub fn extract(&self, table: &Table) -> Vec<f64> {
        let rows = table.n_rows() as f64;
        let approx_bytes = approximate_bytes(table);
        let mut features = vec![rows, approx_bytes];
        match self.feature_set {
            FeatureSet::SizeOnly => {}
            FeatureSet::WeightedEntropy => {
                let h = weighted_entropy_by_type(table, 0, table.n_rows());
                for t in ColumnType::all() {
                    features.push(*h.get(&t).unwrap_or(&0.0));
                }
            }
            FeatureSet::BucketedEntropy => {
                let n = table.n_rows();
                for bucket in 0..ENTROPY_BUCKETS {
                    let start = bucket * n / ENTROPY_BUCKETS;
                    let end = ((bucket + 1) * n / ENTROPY_BUCKETS).max(start);
                    let h = weighted_entropy_by_type(table, start, end);
                    for t in ColumnType::all() {
                        features.push(*h.get(&t).unwrap_or(&0.0));
                    }
                }
            }
        }
        features
    }
}

/// Approximate serialized size of the table in bytes (sum of CSV cell
/// lengths), cheap to compute and monotone in the actual size.
pub fn approximate_bytes(table: &Table) -> f64 {
    let mut total = 0usize;
    for c in 0..table.n_columns() {
        total += match table.column(c) {
            ColumnData::Int(v) => v.iter().map(|x| int_len(*x)).sum::<usize>(),
            ColumnData::Date(v) => v.len() * 10,
            ColumnData::Float(v) => v.iter().map(|x| int_len(*x as i64) + 3).sum::<usize>(),
            ColumnData::Text(v) => v.iter().map(|s| s.len()).sum::<usize>(),
        };
        total += table.n_rows(); // separators
    }
    total as f64
}

fn int_len(x: i64) -> usize {
    let mut len = if x < 0 { 1 } else { 0 };
    let mut v = x.unsigned_abs();
    loop {
        len += 1;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    len
}

/// Weighted entropy per data type over the row range `[start, end)`:
/// `H(P, d) = -Σ_s len(s) · pr(s) · log(pr(s))` where the sum runs over the
/// distinct string values `s` of columns of type `d`.
///
/// This is the allocation-lean fast path: per cell it pays one numeric
/// hash-map bump (or a borrowed-`&str` tree insert for text columns) —
/// strings are rendered **once per distinct value**, not once per cell as
/// the seed implementation did
/// ([`weighted_entropy_by_type_reference`], preserved as the differential
/// oracle). Distinct values are then merged
/// by their rendered string and the entropy sum runs in the same
/// lexicographic order over the same `(string, count)` pairs, so the
/// result is bit-for-bit identical.
///
/// It is kept although it does not win everywhere. On the seed-12 batch
/// plan (two vCPUs) the 91 query samples `build_examples` featurises
/// (60 977 rows) take 0.078–0.090 s here against 0.134–0.158 s in the
/// reference (1.48–1.91×), ≈ 0.06 CPU-s per plan. On the 239 file-sized
/// tables the plan then featurises for prediction it runs at 0.68–0.96×
/// the reference, a few ms in all. The large samples dominate the sum.
pub fn weighted_entropy_by_type(
    table: &Table,
    start: usize,
    end: usize,
) -> HashMap<ColumnType, f64> {
    let end = end.min(table.n_rows());
    let start = start.min(end);
    let mut result: HashMap<ColumnType, f64> = HashMap::new();
    // Group columns by type, pooling their values (the paper computes one
    // feature per data type present in the partition).
    for t in ColumnType::all() {
        // BTreeMap: the entropy sum below must run in a stable value order
        // so extracted features are bit-identical across runs. Text keys
        // borrow straight from the column; numeric values are counted by
        // raw value first and rendered once per distinct value below.
        let mut counts: std::collections::BTreeMap<std::borrow::Cow<'_, str>, usize> =
            std::collections::BTreeMap::new();
        let mut text: FnvMap<&str, usize> = FnvMap::default();
        let mut numeric: FnvMap<i64, usize> = FnvMap::default();
        let mut float_bits: FnvMap<u64, usize> = FnvMap::default();
        let mut total = 0usize;
        for c in 0..table.n_columns() {
            let col = table.column(c);
            if col.column_type() != t {
                continue;
            }
            total += end - start;
            match col {
                ColumnData::Text(v) => {
                    for s in &v[start..end] {
                        *text.entry(s.as_str()).or_insert(0) += 1;
                    }
                }
                ColumnData::Int(v) | ColumnData::Date(v) => {
                    for &x in &v[start..end] {
                        *numeric.entry(x).or_insert(0) += 1;
                    }
                }
                ColumnData::Float(v) => {
                    // Key by bit pattern: distinct bit patterns may render
                    // to the same string (rounding), which the merge below
                    // handles exactly as per-cell string counting would.
                    for &x in &v[start..end] {
                        *float_bits.entry(x.to_bits()).or_insert(0) += 1;
                    }
                }
            }
        }
        // Merge the distinct values into one ordered map — text keys stay
        // borrowed, numerics are rendered once per distinct value.
        // scope-analyze: allow(no-unordered-iteration) — integer-count merge into an ordered BTreeMap; order-independent by construction
        for (s, count) in text {
            *counts.entry(std::borrow::Cow::Borrowed(s)).or_insert(0) += count;
        }
        // scope-analyze: allow(no-unordered-iteration) — integer-count merge into an ordered BTreeMap; order-independent by construction
        for (x, count) in numeric {
            let s = match t {
                ColumnType::Date => scope_table::column::format_date(x),
                _ => x.to_string(),
            };
            *counts.entry(std::borrow::Cow::Owned(s)).or_insert(0) += count;
        }
        // scope-analyze: allow(no-unordered-iteration) — integer-count merge into an ordered BTreeMap; order-independent by construction
        for (bits, count) in float_bits {
            let s = format!("{:.2}", f64::from_bits(bits));
            *counts.entry(std::borrow::Cow::Owned(s)).or_insert(0) += count;
        }
        if total == 0 {
            continue;
        }
        let mut h = 0.0;
        for (s, count) in counts {
            let pr = count as f64 / total as f64;
            h -= s.len() as f64 * pr * pr.ln();
        }
        result.insert(t, h);
    }
    result
}

/// The seed implementation of [`weighted_entropy_by_type`]: one rendered
/// `String` map key **per cell**. Preserved as the differential oracle
/// (bit-for-bit equality is pinned in this module's tests and in
/// `tests/differential_learn.rs`).
pub fn weighted_entropy_by_type_reference(
    table: &Table,
    start: usize,
    end: usize,
) -> HashMap<ColumnType, f64> {
    let end = end.min(table.n_rows());
    let start = start.min(end);
    let mut result: HashMap<ColumnType, f64> = HashMap::new();
    for t in ColumnType::all() {
        let mut counts: std::collections::BTreeMap<String, usize> =
            std::collections::BTreeMap::new();
        let mut total = 0usize;
        for c in 0..table.n_columns() {
            let col = table.column(c);
            if col.column_type() != t {
                continue;
            }
            for row in start..end {
                *counts.entry(col.value_string(row)).or_insert(0) += 1;
                total += 1;
            }
        }
        if total == 0 {
            continue;
        }
        let mut h = 0.0;
        for (s, count) in counts {
            let pr = count as f64 / total as f64;
            h -= s.len() as f64 * pr * pr.ln();
        }
        result.insert(t, h);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_table::{ColumnDef, Schema};

    fn table_with(text_values: Vec<&str>) -> Table {
        let n = text_values.len();
        let schema = Schema::new(vec![
            ColumnDef::new("id", ColumnType::Int),
            ColumnDef::new("status", ColumnType::Text),
        ]);
        Table::new(
            "t",
            schema,
            vec![
                ColumnData::Int((0..n as i64).collect()),
                ColumnData::Text(text_values.into_iter().map(String::from).collect()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn repeated_values_have_lower_entropy_than_distinct_ones() {
        let repetitive = table_with(vec!["OPEN"; 100]);
        let distinct = table_with(
            (0..100)
                .map(|i| Box::leak(format!("VAL{i:03}").into_boxed_str()) as &str)
                .collect(),
        );
        let h_rep = weighted_entropy_by_type(&repetitive, 0, 100);
        let h_dis = weighted_entropy_by_type(&distinct, 0, 100);
        // A constant column has zero entropy; 100 distinct values have a lot.
        assert!(h_rep[&ColumnType::Text] < 1e-9);
        assert!(h_dis[&ColumnType::Text] > 1.0);
    }

    #[test]
    fn entropy_weights_by_string_length() {
        let short = table_with(vec!["A", "B", "A", "B"]);
        let long = table_with(vec!["AAAAAAAAAA", "BBBBBBBBBB", "AAAAAAAAAA", "BBBBBBBBBB"]);
        let h_short = weighted_entropy_by_type(&short, 0, 4)[&ColumnType::Text];
        let h_long = weighted_entropy_by_type(&long, 0, 4)[&ColumnType::Text];
        assert!((h_long / h_short - 10.0).abs() < 1e-6);
    }

    #[test]
    fn feature_vector_lengths_match_names() {
        let t = table_with(vec!["x", "y", "z", "x"]);
        for set in [
            FeatureSet::SizeOnly,
            FeatureSet::WeightedEntropy,
            FeatureSet::BucketedEntropy,
        ] {
            let ex = FeatureExtractor::new(set);
            assert_eq!(ex.extract(&t).len(), ex.feature_names().len(), "{set:?}");
        }
        assert_eq!(
            FeatureExtractor::new(FeatureSet::SizeOnly)
                .extract(&t)
                .len(),
            2
        );
        assert_eq!(
            FeatureExtractor::new(FeatureSet::WeightedEntropy)
                .extract(&t)
                .len(),
            2 + 4
        );
        assert_eq!(
            FeatureExtractor::new(FeatureSet::BucketedEntropy)
                .extract(&t)
                .len(),
            2 + 4 * ENTROPY_BUCKETS
        );
    }

    #[test]
    fn fast_entropy_matches_reference_bitwise() {
        // All four column types, repeated and distinct values, partial row
        // ranges: the distinct-value counting path must reproduce the
        // per-cell-String reference exactly.
        use scope_table::{ColumnDef, Schema, TpchGenerator, TpchOptions, TpchTable};
        let schema = Schema::new(vec![
            ColumnDef::new("id", ColumnType::Int),
            ColumnDef::new("price", ColumnType::Float),
            ColumnDef::new("status", ColumnType::Text),
            ColumnDef::new("ship", ColumnType::Date),
        ]);
        let n = 200;
        let t = Table::new(
            "mixed",
            schema,
            vec![
                ColumnData::Int((0..n).map(|i| (i % 17) - 4).collect()),
                ColumnData::Float((0..n).map(|i| (i % 13) as f64 * 0.493).collect()),
                ColumnData::Text((0..n).map(|i| format!("S{}", i % 7)).collect()),
                ColumnData::Date((0..n).map(|i| (i % 40) * 11).collect()),
            ],
        )
        .unwrap();
        for (start, end) in [(0, 200), (0, 50), (37, 160), (200, 200)] {
            let fast = weighted_entropy_by_type(&t, start, end);
            let slow = weighted_entropy_by_type_reference(&t, start, end);
            assert_eq!(fast.len(), slow.len(), "range {start}..{end}");
            for (k, v) in &slow {
                assert_eq!(fast[k].to_bits(), v.to_bits(), "{k:?} range {start}..{end}");
            }
        }
        // And on real TPC-H data.
        let gen = TpchGenerator::new(TpchOptions {
            scale_factor: 0.05,
            ..Default::default()
        })
        .unwrap();
        let orders = gen.generate(TpchTable::Orders);
        let fast = weighted_entropy_by_type(&orders, 0, orders.n_rows());
        let slow = weighted_entropy_by_type_reference(&orders, 0, orders.n_rows());
        assert_eq!(fast.len(), slow.len());
        for (k, v) in &slow {
            assert_eq!(fast[k].to_bits(), v.to_bits(), "{k:?}");
        }
    }

    #[test]
    fn approximate_bytes_grows_with_rows() {
        let small = table_with(vec!["abc"; 10]);
        let large = table_with(vec!["abc"; 100]);
        assert!(approximate_bytes(&large) > approximate_bytes(&small));
        assert!(approximate_bytes(&small) > 0.0);
    }

    #[test]
    fn int_len_handles_signs_and_zero() {
        assert_eq!(int_len(0), 1);
        assert_eq!(int_len(7), 1);
        assert_eq!(int_len(12345), 5);
        assert_eq!(int_len(-42), 3);
    }

    #[test]
    fn bucketed_entropy_differs_for_sorted_data() {
        // A column where values cluster by position: sorted data has
        // low entropy within each bucket even though global entropy is high.
        let values: Vec<&str> = (0..100)
            .map(|i| if i < 50 { "AAAA" } else { "BBBB" })
            .collect();
        let sorted = table_with(values);
        let ex = FeatureExtractor::new(FeatureSet::BucketedEntropy);
        let features = ex.extract(&sorted);
        // Per-bucket text entropies are at positions 2 + 4*b + 2 (text is the
        // third type in ColumnType::all()). Buckets fully inside a sorted
        // run are constant -> zero entropy; only the bucket straddling the
        // A/B boundary (bucket 2, rows 40..60) carries entropy.
        let global = FeatureExtractor::new(FeatureSet::WeightedEntropy).extract(&sorted);
        let global_text = global[2 + 2];
        assert!(global_text > 0.5);
        for b in [0, 1, 3, 4] {
            let text_idx = 2 + 4 * b + 2;
            assert!(
                features[text_idx].abs() < 1e-9,
                "bucket {b} should be constant"
            );
        }
        let mean_bucket_text: f64 = (0..ENTROPY_BUCKETS)
            .map(|b| features[2 + 4 * b + 2])
            .sum::<f64>()
            / ENTROPY_BUCKETS as f64;
        assert!(mean_bucket_text < global_text);
    }

    #[test]
    fn feature_set_names() {
        assert_eq!(FeatureSet::SizeOnly.name(), "size");
        assert_eq!(FeatureSet::WeightedEntropy.name(), "weighted-entropy");
        assert_eq!(
            FeatureSet::BucketedEntropy.name(),
            "bucketed-weighted-entropy"
        );
    }

    #[test]
    fn empty_row_range_yields_no_entropy_entries() {
        let t = table_with(vec!["a", "b"]);
        let h = weighted_entropy_by_type(&t, 2, 2);
        assert!(h.is_empty());
    }
}
